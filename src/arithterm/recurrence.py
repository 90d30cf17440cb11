"""Linear recurrences with constant rational coefficients.

A sequence s is described here by

    s(n + d) + coeffs[0] * s(n + d - 1) + ... + coeffs[d - 1] * s(n) = 0

together with the first d values s(0..d-1), which must be integers.  The
last coefficient must be nonzero, so the order is exact.  Expansion steps
in integers, with the coefficients scaled by their common denominator, and
it is a hard error if any term of the sequence fails to be an integer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .polys import reduce_int_fraction

Coeff = int | Fraction | str

_NONNEG_PROBE = 8  # terms past the initial ones that is_provably_nonnegative inspects


class NonIntegerTermError(ValueError):
    """A recurrence produced a non-integer value at some index."""

    def __init__(self, index: int, value: Fraction):
        super().__init__(f"term at index {index} is not an integer: {value}")
        self.index = index
        self.value = value


def _as_fraction(value: Coeff) -> Fraction:
    # str is accepted so JSON specs can carry exact values like "-1/2";
    # floats and bools are refused rather than rounded or read as 0 and 1
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"expected int, str or Fraction, got {type(value).__name__}")


def _as_int(value: Coeff) -> int:
    """value as an int, refusing what _as_fraction refuses and non-integers."""
    x = _as_fraction(value)
    if x.denominator != 1:
        raise ValueError(f"expected an integer, got {value!r}")
    return x.numerator


@dataclass(frozen=True, slots=True)
class Recurrence:
    """Recurrence order, coefficient vector, and integer initial segment."""

    order: int
    coeffs: tuple[Fraction, ...]
    init: tuple[int, ...]

    def __init__(self, order: int, coeffs: Iterable[Coeff], init: Iterable[Coeff]):
        order = _as_int(order)
        coeffs = tuple(_as_fraction(c) for c in coeffs)
        init = tuple(_as_int(v) for v in init)
        if order < 1:
            raise ValueError("order must be at least 1")
        if len(coeffs) != order:
            raise ValueError(f"expected {order} coefficients, got {len(coeffs)}")
        if len(init) != order:
            raise ValueError(f"expected {order} initial values, got {len(init)}")
        if coeffs[-1] == 0:
            raise ValueError("trailing coefficient must be nonzero")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "init", init)

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "coeffs": [str(c) for c in self.coeffs],
            "init": [str(v) for v in self.init],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Recurrence":
        """Inverse of to_json_dict; malformed data raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError("recurrence spec must be a JSON object")
        try:
            return cls(data["order"], data["coeffs"], data["init"])
        except KeyError as exc:
            raise ValueError(f"recurrence spec is missing field {exc}") from None
        except TypeError as exc:
            # an order, coefficient or initial value that is a float, a bool, a list or null
            raise ValueError(f"malformed recurrence spec: {exc}") from None

    @classmethod
    def from_json(cls, text: str) -> "Recurrence":
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True, slots=True)
class SequenceWindow:
    """A contiguous prefix s(0..len-1) of a sequence."""

    values: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.values)


def _int_den(rec: Recurrence) -> tuple[int, ...]:
    """scale * (1, *coeffs), for scale the lcm of the coefficient denominators."""
    scale = math.lcm(*(a.denominator for a in rec.coeffs))
    return (scale, *(a.numerator * (scale // a.denominator) for a in rec.coeffs))


def eval_oracle(rec: Recurrence, count: int) -> SequenceWindow:
    """First ``count`` terms of the sequence, computed exactly by _extend.

    Raises NonIntegerTermError as soon as a rational non-integer shows up;
    the recurrence then does not define an integer sequence.
    """
    if count < 0:
        raise ValueError("count must be a natural number")
    vals = list(rec.init[:count])
    _extend(_int_den(rec), vals, count)
    return SequenceWindow(tuple(vals))


def _extend(den: Sequence[int], vals: list[int], count: int) -> None:
    """Append v(len(vals)), ..., v(count - 1) to vals, for the integer
    recurrence sum_i den_i v(n-i) = 0 with the scale den_0 > 0 first and a
    nonzero last coefficient: _int_den(rec) for s, or the reduced
    denominator of a generating function, with scale 1, for its series.
    vals holds v(0) to v(len(vals) - 1) and, unless it already holds count
    values, at least the len(den) - 1 initial ones.

    Each new value costs one integer multiply-add per nonzero coefficient,
    followed, only when the scale exceeds 1, by an exact division by it,
    which raises NonIntegerTermError at the first value that is not an
    integer.
    """
    if len(vals) >= count:
        return
    scale, *coeffs = den
    # v(n) = -(sum_{i>=1} den_i * v(n-i)) / scale over the nonzero lags i;
    # the last coefficient is nonzero, so there is at least one
    (w1, k1), *lags = [(-a, -i) for i, a in enumerate(coeffs, 1) if a]
    append = vals.append
    for n in range(len(vals), count):
        acc = w1 * vals[k1]
        for w, k in lags:
            acc += w * vals[k]
        if scale > 1:
            q, rem = divmod(acc, scale)
            if rem:
                raise NonIntegerTermError(n, Fraction(acc, scale))
            acc = q
        append(acc)


def generating_function(rec: Recurrence, c: int = 0) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(num, den) of the generating function of n -> s(n) + c^(n+1), in Z[z].

    den = _int_den(rec) and num_k = sum_{i<=k} den_i s(k-i) for k < d give
    the generating function of s; for c > 0 the pair becomes
    (num (1 - cz) + c den, den (1 - cz)).  reduce_int_fraction then makes
    it the unique primitive reduced representative with den[0] > 0.  A zero
    sequence gives ((), (1,)).
    """
    if c < 0:
        raise ValueError("shift must be a natural number")
    d = rec.order
    den = _int_den(rec)
    num = [sum(den[i] * rec.init[k - i] for i in range(k + 1)) for k in range(d)]
    if c:
        # num/den + c/(1 - cz) = (num (1 - cz) + c den) / (den (1 - cz))
        num = [x + c * y for x, y in zip(_times_1_minus_cz(num, c), den)]
        den = _times_1_minus_cz(den, c)
    return reduce_int_fraction(num, den)


def _times_1_minus_cz(p: Sequence[int], c: int) -> list[int]:
    return [x - c * y for x, y in zip((*p, 0), (0, *p))]


def floor_root(x: int, k: int) -> int:
    """Largest integer r with r^k <= x, for x >= 0, k >= 1."""
    if x < 0:
        raise ValueError("x must be a natural number")
    if x < 2 or k == 1:
        return x
    r = 1 << ((x.bit_length() + k - 1) // k)
    while r**k > x:
        r = (r * (k - 1) + x // r ** (k - 1)) // k
    while (r + 1) ** k <= x:
        r += 1
    return r


def growth_constant(rec: Recurrence) -> int:
    """Small integer c >= 1 with |s(n)| < c^(n+1) for all n (see _growth_constant)."""
    return _growth_constant(_int_den(rec), rec.init)


def _growth_constant(den: Sequence[int], init: Sequence[int]) -> int:
    """growth_constant of sum_i den_i s(n-i) = 0, den_0 > 0, with s = init on
    the first d = len(den) - 1 indices: the least c at or past the start
    bound d * sum_{i>=1} |den_i| // den_0 + 1, which dominates the step
    inductively once the initial terms comply, with |s(k)| < c^(k+1) for
    k < d, which floor_root(|s(k)|, k + 1) + 1 is the least c to meet."""
    d = len(den) - 1
    start = d * sum(abs(a) for a in den[1:]) // den[0] + 1
    return max(start, *(floor_root(abs(v), k + 1) + 1 for k, v in enumerate(init[:d])))


def is_provably_nonnegative(rec: Recurrence) -> bool:
    """Conservative check that s(n) >= 0 for every n (see _nonnegative)."""
    return _nonnegative(_int_den(rec), eval_oracle(rec, _NONNEG_PROBE + rec.order).values)


def _nonnegative(den: Sequence[int], s: Sequence[int]) -> bool:
    """is_provably_nonnegative from den = _int_den(rec) and a prefix s.

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
