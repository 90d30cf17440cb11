"""Sequence families and a catalog of worked representations.

The helpers here build recurrences for classical families (Lucas sequences,
Pell equation solutions, Fibonacci self-convolutions) plus independent
closed-form oracles for cross-checking.  ``fixtures`` returns the catalog of
representations with their bases and shifts; every entry is replayed against
its own recurrence by the verification layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .recurrence import Recurrence
from .terms import Term, parse


class LucasParameterError(ValueError):
    """Degenerate Lucas parameters where the pair (U, V) is not intended."""


@dataclass(frozen=True, slots=True)
class LucasParams:
    """Parameters (P, Q) of the Lucas pair U, V.

    Construction never fails; ``is_degenerate`` flags the parameter choices
    (4Q = P^2 or Q = 0) where the two characteristic roots coincide or one
    vanishes.  The recurrence builders refuse those, the closed-form oracle
    still works there.
    """

    P: int
    Q: int

    @property
    def discriminant(self) -> int:
        return self.P * self.P - 4 * self.Q

    @property
    def is_degenerate(self) -> bool:
        return self.discriminant == 0 or self.Q == 0


def lucas_U(params: LucasParams) -> Recurrence:
    """Recurrence of U(P, Q): 0, 1, then s(n+2) = P s(n+1) - Q s(n)."""
    if params.is_degenerate:
        raise LucasParameterError(f"degenerate parameters {params}")
    return Recurrence(2, (-params.P, params.Q), (0, 1))


def lucas_V(params: LucasParams) -> Recurrence:
    """Recurrence of V(P, Q): 2, P, then s(n+2) = P s(n+1) - Q s(n)."""
    if params.is_degenerate:
        raise LucasParameterError(f"degenerate parameters {params}")
    return Recurrence(2, (-params.P, params.Q), (2, params.P))


def _ring_pow(p: int, disc: int, n: int) -> tuple[int, int]:
    """Components (x, y) of (p + g)^n in Z[g] with g^2 = disc."""
    rx, ry = 1, 0
    bx, by = p, 1
    e = n
    while e:
        if e & 1:
            rx, ry = rx * bx + disc * ry * by, rx * by + ry * bx
        bx, by = bx * bx + disc * by * by, 2 * bx * by
        e >>= 1
    return rx, ry


def lucas_closed_form_oracle(params: LucasParams, kind: str, n: int) -> int:
    """U(n) or V(n) straight from powers of P + sqrt(P^2 - 4Q).

    Writing (P + g)^n = x + y g with g^2 equal to the discriminant, one has
    U(n) = y / 2^(n-1) and V(n) = x / 2^(n-1); the divisions are exact.
    This route never touches the recurrence, so it is an independent check,
    and it is total: degenerate parameters are fine.
    """
    if n < 0:
        raise ValueError("n must be a natural number")
    if kind not in ("U", "V"):
        raise ValueError(f"kind must be 'U' or 'V', got {kind!r}")
    if n == 0:
        return 0 if kind == "U" else 2
    x, y = _ring_pow(params.P, params.discriminant, n)
    picked = y if kind == "U" else x
    q, r = divmod(picked, 1 << (n - 1))
    if r:
        raise ArithmeticError(f"ring power not divisible by 2^{n - 1}")
    return q


def fibonacci_binomial_oracle(n: int) -> int:
    """F(n) via the binomial sum 2^(1-n) * sum_k 5^k C(n, 2k+1)."""
    if n < 0:
        raise ValueError("n must be a natural number")
    if n == 0:
        return 0
    total = sum(5**k * math.comb(n, 2 * k + 1) for k in range((n + 1) // 2))
    q, r = divmod(total, 1 << (n - 1))
    if r:
        raise ArithmeticError(f"binomial sum not divisible by 2^{n - 1}")
    return q


def pell_fundamental(k: int) -> tuple[int, int]:
    """Least (x, y) with x^2 - k y^2 = 1 and y > 0, via continued fractions.

    k must be at least 2 and not a perfect square.  Convergents p/q of the
    continued fraction of sqrt(k) are scanned until one solves the equation.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    a0 = math.isqrt(k)
    if a0 * a0 == k:
        raise ValueError(f"{k} is a perfect square")
    m, d, a = 0, 1, a0
    p_prev, p = 1, a0
    q_prev, q = 0, 1
    for _ in range(10**4):
        m = d * a - m
        d = (k - m * m) // d
        a = (a0 + m) // d
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        if p * p - k * q * q == 1:
            return p, q
    raise ArithmeticError(f"no fundamental solution found for k={k}")


def pell_recurrences(k: int) -> tuple[Recurrence, Recurrence]:
    """Recurrences for the x- and y-coordinates of the solutions of
    x^2 - k y^2 = 1, ordered by size; both satisfy
    s(n+2) = 2 x1 s(n+1) - s(n) with (x1, y1) the fundamental solution.

    Index 0 holds the trivial solution (1, 0).
    """
    x1, y1 = pell_fundamental(k)
    x_rec = Recurrence(2, (-2 * x1, 1), (1, x1))
    y_rec = Recurrence(2, (-2 * x1, 1), (0, y1))
    return x_rec, y_rec


def fibonacci_convolution(r: int) -> Recurrence:
    """Recurrence of the r-fold self-convolution of the Fibonacci numbers.

    The generating function is (z / (1 - z - z^2))^(r+1); r = 0 gives the
    Fibonacci numbers themselves.
    """
    if r < 0:
        raise ValueError("r must be a natural number")
    den = [1]
    for _ in range(r + 1):  # times 1 - z - z^2
        den = [a - b - c for a, b, c in zip((*den, 0, 0), (0, *den, 0), (0, 0, *den))]
    # z^(r+1) / den by long division; den[0] = 1, so every step is exact
    order = 2 * (r + 1)
    init = [0] * (r + 1) + [1]
    for k in range(r + 2, order):
        init.append(-sum(den[j] * init[k - j] for j in range(1, k + 1)))
    return Recurrence(order, den[1:], init)


@dataclass(frozen=True, slots=True)
class Fixture:
    """A catalog entry: recurrence, representation term, and its range."""

    id: str
    recurrence: Recurrence
    base: int
    shift: int
    term: Term
    valid_from: int
    notes: str = ""


def _fib_conv_fixture(fid: str, r: int, base: int, notes: str) -> Fixture:
    term = parse(
        f"fl({base}^(n^2 + {r + 1}*n) / ({base}^(2*n) -. ({base}^n + 1))^{r + 1}) % {base}^n"
    )
    return Fixture(
        id=fid,
        recurrence=fibonacci_convolution(r),
        base=base,
        shift=0,
        term=term,
        valid_from=0,
        notes=notes,
    )


@lru_cache(maxsize=1)
def fixtures() -> tuple[Fixture, ...]:
    pell7_x, pell7_y = pell_recurrences(7)
    entries = [
        Fixture(
            id="A000045",
            recurrence=lucas_U(LucasParams(1, -1)),
            base=3,
            shift=0,
            term=parse("fl(3^(n^2 + n) / (3^(2*n) -. (3^n + 1))) % 3^n"),
            valid_from=0,
            notes="Fibonacci numbers; 3 is the least valid base",
        ),
        Fixture(
            id="A000045-b2",
            recurrence=lucas_U(LucasParams(1, -1)),
            base=2,
            shift=0,
            term=parse("fl(2^(n^2 + n) / (2^(2*n) -. (2^n + 1))) % 2^n"),
            valid_from=2,
            notes="Fibonacci in base 2, which only works from n = 2 on",
        ),
        Fixture(
            id="A000032",
            recurrence=lucas_V(LucasParams(1, -1)),
            base=5,
            shift=0,
            term=parse(
                "2*(1 -. n) + (fl((2*5^(n^2 + 2*n) -. 5^(n^2 + n))"
                " / (5^(2*n) -. (5^n + 1))) % 5^n)"
            ),
            valid_from=0,
            notes="Lucas numbers; the 2*(1 -. n) patch covers n = 0",
        ),
        Fixture(
            id="A000129",
            recurrence=lucas_U(LucasParams(2, -1)),
            base=3,
            shift=0,
            term=parse("fl(3^(n^2 + n) / (3^(2*n) -. (2*3^n + 1))) % 3^n"),
            valid_from=0,
            notes="Pell numbers",
        ),
        Fixture(
            id="A002203",
            recurrence=lucas_V(LucasParams(2, -1)),
            base=9,
            shift=0,
            term=parse(
                "fl((2*9^(n^2 + 2*n) -. 2*9^(n^2 + n)) / (9^(2*n) -. (2*9^n + 1))) % 9^n"
            ),
            valid_from=1,
            notes="companion Pell numbers",
        ),
        Fixture(
            id="A001477",
            recurrence=Recurrence(2, (-2, 1), (0, 1)),
            base=4,
            shift=0,
            term=parse("fl(4^(n^2 + n) / ((4^(2*n) + 1) -. 2*4^n)) % 4^n"),
            valid_from=0,
            notes="the identity sequence; degenerate Lucas U(2, 1)",
        ),
        Fixture(
            id="A007395",
            recurrence=Recurrence(2, (-2, 1), (2, 2)),
            base=4,
            shift=0,
            term=parse("fl(2*4^(n^2 + n) / (4^n -. 1)) % 4^n"),
            valid_from=1,
            notes="all twos; degenerate Lucas V(2, 1), reduced to 2/(1 - z)",
        ),
        Fixture(
            id="A001045",
            recurrence=lucas_U(LucasParams(1, -2)),
            base=4,
            shift=0,
            term=parse("fl(4^(n^2 + n) / (4^(2*n) -. (4^n + 2))) % 4^n"),
            valid_from=0,
            notes="Jacobsthal numbers",
        ),
        Fixture(
            id="A014551",
            recurrence=lucas_V(LucasParams(1, -2)),
            base=7,
            shift=0,
            term=parse(
                "fl((2*7^(n^2 + 2*n) -. 7^(n^2 + n)) / (7^(2*n) -. (7^n + 2))) % 7^n"
            ),
            valid_from=1,
            notes="Jacobsthal-Lucas numbers",
        ),
        Fixture(
            id="A000225",
            recurrence=lucas_U(LucasParams(3, 2)),
            base=6,
            shift=0,
            term=parse("fl(6^(n^2 + n) / ((6^(2*n) + 2) -. 3*6^n)) % 6^n"),
            valid_from=0,
            notes="2^n - 1; 6 is the least valid base",
        ),
        Fixture(
            id="A000051",
            recurrence=lucas_V(LucasParams(3, 2)),
            base=7,
            shift=0,
            term=parse(
                "fl((2*7^(n^2 + 2*n) -. 3*7^(n^2 + n)) / ((7^(2*n) + 2) -. 3*7^n)) % 7^n"
            ),
            valid_from=1,
            notes="2^n + 1",
        ),
        Fixture(
            id="A088137",
            recurrence=lucas_U(LucasParams(2, 3)),
            base=32,
            shift=3,
            term=parse(
                "fl((3*32^(n^2 + 3*n) + 6*32^(n^2 + n) -. 5*32^(n^2 + 2*n))"
                " / ((32^(3*n) + 9*32^n) -. (5*32^(2*n) + 9))) % 32^n"
            ),
            valid_from=1,
            notes="U(2, 3), signed; shift 3 makes the series nonnegative",
        ),
        Fixture(
            id="A002249",
            recurrence=lucas_V(LucasParams(1, 2)),
            base=8,
            shift=2,
            term=parse(
                "fl((4*8^(n^2 + 3*n) + 6*8^(n^2 + n) -. 7*8^(n^2 + 2*n))"
                " / ((8^(3*n) + 4*8^n) -. (3*8^(2*n) + 4))) % 8^n"
            ),
            valid_from=1,
            notes="V(1, 2), signed; shift 2 makes the series nonnegative",
        ),
        Fixture(
            id="A001081",
            recurrence=pell7_x,
            base=143,
            shift=0,
            term=parse(
                "fl((143^(n^2 + 2*n) -. 8*143^(n^2 + n))"
                " / ((143^(2*n) + 1) -. 16*143^n)) % 143^n"
            ),
            valid_from=1,
            notes="x-coordinates of the solutions of x^2 - 7y^2 = 1",
        ),
        Fixture(
            id="A001080",
            recurrence=pell7_y,
            base=64,
            shift=0,
            term=parse(
                "fl(3*2^(6*n^2 + 6*n) / ((2^(12*n) + 1) -. 2^(6*n + 4))) % 2^(6*n)"
            ),
            valid_from=0,
            notes="y-coordinates for k = 7; base 64 written through powers of 2",
        ),
        Fixture(
            id="A000073",
            recurrence=Recurrence(3, (-1, -1, -1), (0, 0, 1)),
            base=2,
            shift=0,
            term=parse(
                "fl(2^(n^2 + n) / (2^(3*n) -. (2^(2*n) + 2^n + 1))) % 2^n"
            ),
            valid_from=0,
            notes="tribonacci numbers",
        ),
        Fixture(
            id="A000931",
            recurrence=Recurrence(3, (0, -1, -1), (1, 0, 0)),
            base=2,
            shift=0,
            term=parse(
                "fl((2^(n^2 + 3*n) -. 2^(n^2 + n)) / (2^(3*n) -. (2^n + 1))) % 2^n"
            ),
            valid_from=1,
            notes="Padovan sequence",
        ),
        Fixture(
            id="A000930",
            recurrence=Recurrence(3, (-1, 0, -1), (1, 1, 1)),
            base=2,
            shift=0,
            term=parse(
                "fl(2^(n^2 + 3*n) / (2^(3*n) -. (2^(2*n) + 1))) % 2^n"
            ),
            valid_from=1,
            notes="Narayana's cows sequence",
        ),
        _fib_conv_fixture("A001629", 1, 4, "Fibonacci self-convolution"),
        _fib_conv_fixture("FibConv2", 2, 2, "2-fold Fibonacci self-convolution"),
        _fib_conv_fixture("FibConv3", 3, 3, "3-fold Fibonacci self-convolution"),
        _fib_conv_fixture("FibConv4", 4, 3, "4-fold Fibonacci self-convolution"),
        Fixture(
            id="A103469",
            recurrence=Recurrence(7, (-1, 0, 0, 0, 0, -1, 1), (1, 1, 2, 2, 3, 2, 3)),
            base=2,
            shift=0,
            term=parse(
                "fl((2^((n^2 + 5*n) -. 6) + 2^((n^2 + 4*n) -. 5) + 2^((n^2 + 2*n) -. 3)"
                " + 2^(n^2 -. 1) -. (2^((n^2 + n) -. 2) + 2^(n^2 -. n)))"
                " / ((2^(7*n -. 7) + 1) -. (2^(6*n -. 6) + 2^(n -. 1)))) % 2^(n -. 1)"
            ),
            valid_from=3,
            notes="floor(n/2) - floor((n+1)/6) + 1, with rescaled exponents",
        ),
    ]
    return tuple(entries)


def get_fixture(fid: str) -> Fixture:
    for fix in fixtures():
        if fix.id == fid:
            return fix
    raise ValueError(f"no fixture with id {fid!r}")
