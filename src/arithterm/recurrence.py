"""Linear recurrences with constant rational coefficients.

A sequence s is described here by

    s(n + d) + coeffs[0] * s(n + d - 1) + ... + coeffs[d - 1] * s(n) = 0

together with the first d values s(0..d-1), which must be integers.  The
last coefficient must be nonzero, so the order is exact.  Expansion steps
in integers, with the coefficients scaled by their common denominator, and
it is a hard error if any term of the sequence fails to be an integer.
The proofs that a shift makes the sequence nonnegative, and its growth
constant, live in synthesis beside the search that reads them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, repeat
from operator import add, mul
from typing import Iterable, Sequence

from .polys import reduce_int_fraction

Coeff = int | Fraction | str


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
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
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

    The whole prefix is formed, so the cost grows with count times the
    bits of the values, but _extend's iterator pipeline spends no Python
    step per value on integer coefficients.  Raises NonIntegerTermError as
    soon as a rational non-integer shows up; the recurrence then does not
    define an integer sequence.
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

    The new values come from a pipeline of iterators that CPython runs in
    C, with no Python step per value unless the scale exceeds 1.  For
    n0 = len(vals), each nonzero lag i streams vals from index n0 - i on,
    through a list iterator placed there at once (islice would step over
    the n0 - i values before it), times w = -den_i unless w = 1.  The lag
    streams are summed by map(add) in a balanced tree, so each value passes
    O(log #lags) maps; a chain one map per lag deep overflows the C stack
    at 10^5 lags.  Past a scale above 1, one more stage divides exactly
    and raises NonIntegerTermError at the first value that is not an
    integer, with the values before it appended.  vals.extend appends each
    value as soon as it is formed, so the j-th new value, v(n0 + j), reads
    lag i at index n0 - i + j < n0 + j: every lag iterator reads only values
    already appended.
    """
    n0 = len(vals)
    if n0 >= count:
        return
    scale, *coeffs = den
    lags = []
    for i, a in enumerate(coeffs, 1):
        if a:
            lagged = iter(vals)
            lagged.__setstate__(n0 - i)
            lags.append(lagged if a == -1 else map(mul, repeat(-a), lagged))
    # the last coefficient is nonzero, so there is at least one lag
    while len(lags) > 1:
        lags = [map(add, x, y) for x, y in zip(lags[::2], lags[1::2])] + lags[len(lags) // 2 * 2 :]
    stream = lags[0]
    if scale > 1:

        def exact(acc: int, n: int) -> int:
            q, rem = divmod(acc, scale)
            if rem:
                raise NonIntegerTermError(n, Fraction(acc, scale))
            return q

        stream = map(exact, stream, range(n0, count))
    vals.extend(islice(stream, count - n0))


def generating_function(rec: Recurrence, c: int = 0) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(num, den) of the generating function of n -> s(n) + c^(n+1), in Z[z].

    den = _int_den(rec) and num_k = sum_{i<=k} den_i s(k-i) for k < d give
    the generating function of s; for c > 0 the pair becomes
    (num (1 - cz) + c den, den (1 - cz)).  reduce_int_fraction then makes
    it the unique primitive reduced representative with den[0] > 0.  A zero
    sequence gives ((), (1,)).
    """
    return _generating_function(_int_den(rec), rec.init, c)


def _generating_function(den: tuple[int, ...], init: Sequence[int], c: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """generating_function for den = _int_den(rec) and init = rec.init,
    for a caller that holds den already."""
    if c < 0:
        raise ValueError("shift must be a natural number")
    num = [sum(den[i] * init[k - i] for i in range(k + 1)) for k in range(len(den) - 1)]
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
