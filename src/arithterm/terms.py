"""Term syntax over natural numbers: AST, evaluator, parser, renderers.

The term language is the closure of natural constants and variables under
addition, truncated subtraction, multiplication, floor division, power and
the remainder derived from floor division.  Conventions:

    x -. y  = max(x - y, 0)
    x / y   = floor(x / y), and x / 0 = 0
    x ^ y   with 0 ^ 0 = 1
    x % y   = x -. y * (x / y), hence x % 0 = x and x % 1 = 0

The evaluator works on Python integers and therefore never overflows, but a
bit budget guards against accidentally materializing astronomically large
powers; crossing it raises BudgetExceededError instead of hanging.

Concrete syntax accepted by ``parse``:

    term   := sum (('%' sum))*
    sum    := product (('+' | '-.') product)*
    product:= power (('*' | '/') power)*
    power  := atom ('^' power)?
    atom   := NAT | IDENT | '(' term ')' | 'fl' '(' term ')'

``/`` always floors, so ``fl`` is semantically the identity; the renderer
prints every division as ``fl(x / y)`` to show where a floor is doing work,
and parsing simply unwraps the marker, so rendered terms round-trip.
Plain '-' is not an operator here; the parser points at it and suggests '-.'.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, Mapping, NamedTuple, Union

from .polys import _int_prem

Term = Union["Const", "Var", "BinOp"]

_OPS = ("add", "truncsub", "mul", "floordiv", "pow", "mod")

DEFAULT_BIT_BUDGET = 1 << 26

# parse, term_from_json, evaluate, render, term_to_json and dump_term_json
# recurse once per nesting level; past the interpreter's recursion limit
# they raise ParseError or BudgetExceededError with this message
_TOO_DEEP = "term nests too deeply"


class BudgetExceededError(RuntimeError):
    """Evaluation would produce an integer beyond the configured bit budget."""


class UnboundVariableError(KeyError):
    def __init__(self, name: str):
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:
        return f"unbound variable: {self.name}"


# The node classes take eq, hash, repr, match args and FrozenInstanceError
# from the dataclass, but validate in a written-out __init__ that sets each
# field through its slot descriptor's __set__, bound once below the classes:
# that skips the frozen __setattr__ as object.__setattr__ does, at about
# half its cost per field.  A term build makes dozens of nodes.


@dataclass(frozen=True, slots=True, init=False)
class Const:
    value: int

    def __init__(self, value: int):
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError("constant must be an int")
        if value < 0:
            raise ValueError("constants are natural numbers")
        _set_value(self, value)


@dataclass(frozen=True, slots=True, init=False)
class Var:
    name: str

    def __init__(self, name: str):
        if not name.isidentifier():
            raise ValueError(f"bad variable name: {name!r}")
        _set_name(self, name)


@dataclass(frozen=True, slots=True, init=False)
class BinOp:
    op: str
    left: Term
    right: Term

    def __init__(self, op: str, left: Term, right: Term):
        if op not in _OPS:
            raise ValueError(f"unknown operator: {op!r}")
        _set_op(self, op)
        _set_left(self, left)
        _set_right(self, right)


_set_value, _set_name = Const.value.__set__, Var.name.__set__
_set_op, _set_left, _set_right = BinOp.op.__set__, BinOp.left.__set__, BinOp.right.__set__


@dataclass
class EvalStats:
    """Mutable scratch record an evaluation can fill in."""

    peak_bits: int = 0

    def note(self, value: int) -> None:
        bits = value.bit_length()
        if bits > self.peak_bits:
            self.peak_bits = bits


def evaluate(term: Term, env: Mapping[str, int] | None = None, *, stats: EvalStats | None = None) -> int:
    """Value of ``term`` under ``env``; every intermediate is a natural number.

    ``env`` maps names to natural ints (bool and non-int values raise
    TypeError).  A power or product past DEFAULT_BIT_BUDGET bits, read at
    call time, raises BudgetExceededError instead of being built.
    """
    bit_budget = DEFAULT_BIT_BUDGET
    env = env or {}
    for name, value in env.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"environment value for {name!r} must be an int")
        if value < 0:
            raise ValueError(f"environment value for {name!r} must be >= 0")

    def go(t: Term) -> int:
        kind = type(t)
        if kind is BinOp:
            op = t.op
            a = go(t.left)
            b = go(t.right)
            if op == "pow":
                if a > 1 and b * a.bit_length() > bit_budget:
                    # b can be too long to print, so report bit lengths
                    raise BudgetExceededError(
                        f"power of a {a.bit_length()}-bit base to a {b.bit_length()}-bit "
                        f"exponent exceeds the budget of {bit_budget} bits"
                    )
                out = a**b
            elif op == "mul":
                if a.bit_length() + b.bit_length() > bit_budget:
                    raise BudgetExceededError(f"product needs about {a.bit_length() + b.bit_length()} bits")
                out = a * b
            elif op == "add":
                out = a + b
            elif op == "truncsub":
                out = a - b if a > b else 0
            elif op == "floordiv":
                out = a // b if b else 0
            else:  # mod
                out = a % b if b else a
            if stats is not None:
                stats.note(out)
            return out
        if kind is Const:
            return t.value
        if kind is Var:
            try:
                return env[t.name]
            except KeyError:
                raise UnboundVariableError(t.name) from None
        raise TypeError(f"not a term: {t!r}")

    try:
        return go(term)
    except RecursionError:
        raise BudgetExceededError(_TOO_DEEP) from None


# --- parsing ---------------------------------------------------------------


class ParseError(ValueError):
    def __init__(self, message: str, position: int | None = None):
        super().__init__(message if position is None else f"{message} (at position {position})")
        self.position = position


class _Token(NamedTuple):
    kind: str  # "num" | "ident" | "op" | "lparen" | "rparen" | "end"
    text: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    toks: list[_Token] = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        # decimal digits are what int() reads; a digit such as '²' is not one
        if ch.isdecimal():
            j = i
            while j < n and src[j].isdecimal():
                j += 1
            toks.append(_Token("num", src[i:j], i))
            i = j
            continue
        # an identifier ends where the next character would stop it being one
        if ch.isidentifier():
            j = i + 1
            while j < n and ("_" + src[j]).isidentifier():
                j += 1
            toks.append(_Token("ident", src[i:j], i))
            i = j
            continue
        if ch == "-":
            if i + 1 < n and src[i + 1] == ".":
                toks.append(_Token("op", "-.", i))
                i += 2
                continue
            raise ParseError("'-' is not an operator here, use '-.' for truncated subtraction", i)
        if ch in "+*/^%":
            toks.append(_Token("op", ch, i))
            i += 1
            continue
        if ch == "(":
            toks.append(_Token("lparen", ch, i))
            i += 1
            continue
        if ch == ")":
            toks.append(_Token("rparen", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(_Token("end", "", n))
    return toks


class _Parser:
    def __init__(self, src: str):
        self.toks = _tokenize(src)
        self.i = 0

    def peek(self) -> _Token:
        return self.toks[self.i]

    def next(self) -> _Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> _Token:
        t = self.next()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.text!r}", t.pos)
        return t

    def term(self) -> Term:
        left = self.sum_()
        while self.peek().kind == "op" and self.peek().text == "%":
            self.next()
            left = BinOp("mod", left, self.sum_())
        return left

    def sum_(self) -> Term:
        left = self.product()
        while self.peek().kind == "op" and self.peek().text in ("+", "-."):
            op = self.next().text
            right = self.product()
            left = BinOp("add" if op == "+" else "truncsub", left, right)
        return left

    def product(self) -> Term:
        left = self.power()
        while self.peek().kind == "op" and self.peek().text in ("*", "/"):
            op = self.next().text
            right = self.power()
            left = BinOp("mul" if op == "*" else "floordiv", left, right)
        return left

    def power(self) -> Term:
        base = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.next()
            return BinOp("pow", base, self.power())
        return base

    def atom(self) -> Term:
        t = self.next()
        if t.kind == "num":
            return Const(int(t.text))
        if t.kind == "ident":
            if t.text == "fl":
                self.expect("lparen")
                inner = self.term()
                self.expect("rparen")
                return inner
            return Var(t.text)
        if t.kind == "lparen":
            inner = self.term()
            self.expect("rparen")
            return inner
        raise ParseError(f"expected a term, found {t.text!r}" if t.text else "unexpected end of input", t.pos)


def parse(src: str) -> Term:
    p = _Parser(src)
    try:
        out = p.term()
    except RecursionError:
        raise ParseError(_TOO_DEEP) from None
    tail = p.peek()
    if tail.kind != "end":
        raise ParseError(f"trailing input {tail.text!r}", tail.pos)
    return out


# --- rendering ---------------------------------------------------------------

# binding strength of each operator in the concrete syntax
_PREC = {"mod": 0, "add": 1, "truncsub": 1, "mul": 2, "floordiv": 2, "pow": 3}
_TEXT = {"add": " + ", "truncsub": " -. ", "mul": "*", "floordiv": " / ", "mod": " % ", "pow": "^"}


def _render_text(t: Term, need: int) -> str:
    match t:
        case Const(value=v):
            return str(v)
        case Var(name=name):
            return name
        case BinOp(op="floordiv", left=left, right=right):
            # the floor marker brackets its argument, so the whole thing is
            # atomic; the children still need product-level precedence so
            # the inner '/' reparses in the right place
            return f"fl({_render_text(left, 2)} / {_render_text(right, 3)})"
        case BinOp(op=op, left=left, right=right):
            prec = _PREC[op]
            if op == "pow":
                body = f"{_render_text(left, 4)}^{_render_text(right, 3)}"
            else:
                body = f"{_render_text(left, prec)}{_TEXT[op]}{_render_text(right, prec + 1)}"
            return f"({body})" if prec < need else body
    raise TypeError(f"not a term: {t!r}")


def _render_latex(t: Term, need: int) -> str:
    match t:
        case Const(value=v):
            return str(v)
        case Var(name=name):
            return name
        case BinOp(op="floordiv", left=left, right=right):
            return (
                r"\left\lfloor\frac{" + _render_latex(left, 0) + "}{" + _render_latex(right, 0) + r"}\right\rfloor"
            )
        case BinOp(op=op, left=left, right=right):
            prec = _PREC[op]
            if op == "pow":
                body = _render_latex(left, 4) + "^{" + _render_latex(right, 0) + "}"
            else:
                glue = {"add": " + ", "truncsub": r" \dotdiv ", "mul": r" \cdot ", "mod": r" \bmod "}[op]
                body = _render_latex(left, prec) + glue + _render_latex(right, prec + 1)
            return r"\left(" + body + r"\right)" if prec < need else body
    raise TypeError(f"not a term: {t!r}")


def _json_node(t: Term) -> dict:
    match t:
        case Const(value=v):
            return {"const": str(v)}
        case Var(name=name):
            return {"var": name}
        case BinOp(op=op, left=left, right=right):
            return {"op": op, "args": [_json_node(left), _json_node(right)]}
    raise TypeError(f"not a term: {t!r}")


def term_to_json(t: Term) -> dict:
    try:
        return _json_node(t)
    except RecursionError:
        raise BudgetExceededError(_TOO_DEEP) from None


def dump_term_json(data) -> str:
    """json.dumps for data that holds term_to_json output.

    json.dumps recurses once or twice per term level, so a term that
    term_to_json can still walk may be too deep to encode; that raises
    BudgetExceededError, as term_to_json does.
    """
    try:
        return json.dumps(data)
    except RecursionError:
        raise BudgetExceededError(_TOO_DEEP) from None


def _term_node(data: dict) -> Term:
    if not isinstance(data, dict):
        raise ValueError("term JSON must be an object")
    if "const" in data:
        value = data["const"]
        if not isinstance(value, (int, str)) or isinstance(value, bool):
            raise ValueError(f"constant must be a decimal string or an int: {value!r}")
        return Const(int(value))
    if "var" in data:
        if not isinstance(data["var"], str):
            raise ValueError(f"variable name must be a string: {data['var']!r}")
        return Var(data["var"])
    if "op" in data:
        args = data.get("args", ())
        if not isinstance(args, (list, tuple)) or len(args) != 2:
            raise ValueError("operator node needs exactly two arguments")
        return BinOp(data["op"], _term_node(args[0]), _term_node(args[1]))
    raise ValueError(f"unrecognized term node: {data!r}")


def term_from_json(data: dict) -> Term:
    """Inverse of term_to_json; malformed data raises ValueError."""
    try:
        return _term_node(data)
    except RecursionError:
        raise ParseError(_TOO_DEEP) from None


def render(t: Term, fmt: str = "text") -> str:
    try:
        if fmt == "text":
            return _render_text(t, 0)
        if fmt == "latex":
            return _render_latex(t, 0)
    except RecursionError:
        raise BudgetExceededError(_TOO_DEEP) from None
    raise ValueError(f"unknown format: {fmt!r}")


# --- construction of extraction terms ----------------------------------------


def _degree(coeffs: tuple[int, ...]) -> int:
    """Largest index of a nonzero coefficient, or -1."""
    return max((i for i, coeff in enumerate(coeffs) if coeff), default=-1)


# n and n^2 are shared by every term build_extraction_term makes
_N = Var("n")
_N_SQUARED = BinOp("pow", _N, Const(2))


def build_extraction_term(num: tuple[int, ...], den: tuple[int, ...], base: int) -> Term:
    """Assemble fl(base^(n^2) * N(x) / D(x)) % x, x = base^n, from signed data.

    ``num`` and ``den`` are int tuples ascending in i; coefficient i
    multiplies x^(h-i) for h = len(den) - 1.  den must have degree exactly
    h (den[h] != 0) and num degree below h.  Exponents are formed as
    n^2 + (h-i)n in the numerator and (h-i)n in the denominator, so all
    stay natural.  The term language has truncated subtraction only, so
    each side is written as its positive part -. its negative part, and
    each positive part must be nonzero.

    Nodes are immutable, so the term is a tree whose equal subterms are
    shared: n and n^2 are module-level, the base and each j*n are built once,
    and base^n is both the modulus and the denominator's j = 1 power.
    """
    if base < 2:
        raise ValueError("base must be at least 2")
    h = len(den) - 1
    if _degree(den) != h:
        raise ValueError("den must have degree len(den) - 1")
    if _degree(num) >= h:
        raise ValueError("numerator degree must be below h")

    n, nsq, b = _N, _N_SQUARED, Const(base)
    x = BinOp("pow", b, n)
    times_n: dict[int, Term] = {1: n}

    def summand(coeff: int, j: int, square: bool) -> Term:
        """coeff*base^(n^2 + j*n) (square) or coeff*base^(j*n); without the
        square, j = 0 is the bare constant."""
        if j == 0 and not square:
            return Const(coeff)
        if j and j not in times_n:
            times_n[j] = BinOp("mul", Const(j), n)
        if square:
            power = BinOp("pow", b, nsq if j == 0 else BinOp("add", nsq, times_n[j]))
        else:
            power = x if j == 1 else BinOp("pow", b, times_n[j])
        return power if coeff == 1 else BinOp("mul", Const(coeff), power)

    sides = []
    for coeffs, square in ((num, True), (den, False)):
        plus = minus = None
        for i, coeff in enumerate(coeffs):
            if coeff:
                part = summand(abs(coeff), h - i, square)
                if coeff > 0:
                    plus = part if plus is None else BinOp("add", plus, part)
                else:
                    minus = part if minus is None else BinOp("add", minus, part)
        if plus is None:
            raise ValueError("positive parts must be nonzero")
        sides.append(plus if minus is None else BinOp("truncsub", plus, minus))
    return BinOp("mod", BinOp("floordiv", *sides), x)


def _poly_at(coeffs: tuple[int, ...], h: int, x: int) -> int:
    """sum of coeffs[i] * x^(h-i), by Horner's rule; len(coeffs) <= h + 1.

    A tuple of zeros is 0 without forming x^(h+1).
    """
    acc = 0
    for coeff in coeffs:
        acc = acc * x + coeff
    pad = h + 1 - len(coeffs)
    return acc * x**pad if acc and pad else acc


def extraction_fraction(num: tuple[int, ...], den: tuple[int, ...], x: int) -> tuple[int, int]:
    """(N(x), D(x)), the numerator and denominator of the term
    build_extraction_term makes from the same data, at x = base^n.

    Raises ValueError when num is longer than den."""
    if len(num) > len(den):
        raise ValueError("num must not be longer than den")
    h = len(den) - 1
    return _poly_at(num, h, x), _poly_at(den, h, x)


# Ring-eligible data (see extraction_values) takes its residue from Z[X]
# at every index of a range when base^n at its last index counts at least
# this many bits, as n * bits(base), the way the budget check counts them;
# any other range takes pow at every index.  Below that, _shifted_residue,
# a step and the Horner sums of D and S cost more than pow(x, n - 1, D) of
# such small numbers.  Measured on CPython 3.11.7 (2-vCPU shared host) over
# the synthesized data of 1,000 random_batch specs (seed 1): the 1,086
# direct checks of synthesize, mostly [1, 3], took 11.1 ms when every
# range stepped, 6.1 ms with this cut-off and 5.9 ms with pow at every
# index; the replays of [1, 30] took 102, 103 and 169 ms.  A single index
# of 140-800 bits costs from 11 us less to 18 us more than pow at h <= 3,
# and 0.34 of pow's time at 720 bits and h = 11.
_RESIDUE_MIN_BITS = 128


def _poly_mul(p: tuple[int, ...], q: tuple[int, ...]) -> list[int]:
    """The product of two coefficient sequences, in either order of powers."""
    prod = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                prod[i + j] += a * b
    return prod


def _shifted_residue(num: tuple[int, ...], den: tuple[int, ...], e: int) -> tuple[int, ...]:
    """S(X) = X^e * N(X) mod D(X) in Z[X], ascending in X, for monic D
    (den[0] == 1) and N the polynomials extraction_fraction evaluates.

    X^e mod D comes from square-and-multiply, where multiplying by X is a
    shift; N's X^h coefficient is reduced by D first, which at e = 0 is
    all there is to do.  D is monic, so _int_prem gives the remainder
    itself: X^e * N = Q*D + S with Q in Z[X], and
    S(x) = x^e * N(x) (mod D(x)).
    """
    d = den[::-1]
    n_rem = _int_prem((*num, *(0,) * (len(den) - len(num)))[::-1], d)
    if e == 0:
        return n_rem
    r: tuple[int, ...] = (1,)
    for bit in bin(e)[2:]:
        r = _int_prem(_poly_mul(r, r), d)
        if bit == "1":
            r = _int_prem((0, *r), d)
    return _int_prem(_poly_mul(n_rem, r), d)


def extraction_values(
    num: tuple[int, ...],
    den: tuple[int, ...],
    base: int,
    ns: range,
    *,
    stats: EvalStats | None = None,
) -> Iterator[int]:
    """Values at each n of the step-1 range ns, in order, of the term
    build_extraction_term makes from the same data; extraction_value is
    the one-index case.

    With x = base^n, A = N(x) and D = D(x) (extraction_fraction), the term
    is fl(base^(n^2) * A / D) % x, or 0 when A <= 0 or D <= 0 (the sides
    are positive -. negative parts, so truncated subtraction gives 0, then
    x / 0 = 0), and 0 at n = 0, where x = 1.  For n >= 1,
    base^(n^2) * A = x * y with y = x^(n-1) * A, and

        floor(x*y / D) mod x = x * (y mod D) // D:

    write y = q*D + r with 0 <= r < D; then x*y / D = q*x + x*r / D and
    0 <= x*r / D < x.  So only y mod D is needed, and every intermediate
    has O(h * n * log base) bits instead of the O(n^2 * log base) bits of
    evaluate on the built term.  x is kept from one index to the next by
    x *= base.  y mod D comes by one of two routes, both giving the same
    integer, chosen once for the whole range:

    - residue: the data is ring-eligible when den[0] == 1 (D(X) is monic)
      and H = max |den[i]| < base; on such data, when the last index n of
      ns has n * bits(base) >= _RESIDUE_MIN_BITS (128), every index
      takes y = S_n(x) for S_n(X) = X^(n-1) * N(X) mod D(X) in Z[X].
      S_n comes from _shifted_residue once, at the first index where
      A > 0 and D > 0 (at n = 1 that is N mod D, one _int_prem), and is
      then stepped once per index, S_(n+1) = X * S_n - lead * D(X) with
      lead the X^h coefficient of X * S_n: a shift and h small
      multiply-subtracts in place of a modular power per index.  No
      division by D happens before S(x) mod D.  For e >= h each
      coefficient of X^e mod D(X) is at most (1 + H)^(e-h+1), so those
      of S are at most (h + 1) * max |num[i]| * x: the ring's numbers
      stay O(bits(x)) bits, and S(x) has at most a few bits more than D.
      This route forms D and S_n(x) at every index, and A only where its
      sign or the budget needs it:
      * D >= 1 for n >= 1: D(X) is monic and |den[i]| <= base - 1 <= x - 1,
        so D >= x^h - (x - 1)(x^(h-1) + ... + 1) = 1; likewise D <= 2x^h - 1.
      * sign (Cauchy): with num[k] the first nonzero coefficient, which
        multiplies x^(h-k), A has num[k]'s sign once |num[k]| * x exceeds
        the sum of the other |num[i]|.  x only grows along a range, so
        A is formed for its sign only at the indices before that.
      * budget: bits(x) <= n * bits(base), bits(D) <= h * n * bits(base)
        + 1 and bits(A) <= bits(sum |num[i]|) + (h - k) * n * bits(base).
        Where that bound of the check below fits the budget, the check
        cannot raise and is skipped; elsewhere A is formed and checked.
    - pow: y = A * pow(x, n - 1, D), at every index of any other range.
      Data that is not ring-eligible always takes it; the data of an
      integer sequence never has D(X) non-monic: by Fatou's lemma its
      reduced den has den[0] = 1.

    Every large intermediate formed is noted in ``stats``: x times the
    residue mod D on every route, plus y (A times pow's residue, or S(x)).
    At each index, n * bits(base) is checked against DEFAULT_BIT_BUDGET,
    the budget evaluate uses, before x = base^n is formed, and the larger
    of bits(A) + bits(D) and bits(x) + bits(D) before any route (on the
    residue route, by the bit bound where it fits), so both raise on the
    same inputs, and a range raises at the index, and with the message,
    that the index alone would.
    """
    if base < 2 or (ns and ns.start < 0):
        raise ValueError("need base >= 2 and n >= 0")
    if ns.step != 1:
        raise ValueError("need a range of step 1")
    if len(num) > len(den):
        raise ValueError("num must not be longer than den")
    budget = DEFAULT_BIT_BUDGET
    h = len(den) - 1
    per_n = base.bit_length()
    ring = bool(ns) and ns[-1] * per_n >= _RESIDUE_MIN_BITS and h >= 0 and den[0] == 1 and max(map(abs, den)) < base
    # on the ring, A has the sign of num's first nonzero coefficient num[k]
    # once x > settle; up to n_fit, bits(sum |num[i]|) + 1 + n * bits(base)
    # * (h + max(h - k, 1)), which bounds the budget check, fits the budget
    settle = None
    if ring and any(num):
        k = next(i for i, c in enumerate(num) if c)
        first, total = num[k], sum(map(abs, num))
        settle = (total - abs(first)) // abs(first)
        n_fit = (budget - total.bit_length() - 1) // (per_n * (h + max(h - k, 1)))
    # S_n once started, coefficient i multiplying X^(h-1-i) as in den
    x = s = None
    for n in ns:
        if n * per_n > budget:
            raise BudgetExceededError(f"base^n needs about {n * per_n} bits, budget is {budget}")
        x = base**n if x is None else x * base
        if s:
            lead = s[0]
            s = [p - lead * dc for p, dc in zip((*s[1:], 0), den[1:])]
        d = _poly_at(den, h, x)
        cauchy = settle is not None and x > settle
        a = first if cauchy else _poly_at(num, h, x)
        if n == 0 or a <= 0 or d <= 0:
            yield 0
            continue
        if not cauchy or n > n_fit:
            bits = max((_poly_at(num, h, x) if cauchy else a).bit_length(), x.bit_length()) + d.bit_length()
            if bits > budget:
                raise BudgetExceededError(f"product needs about {bits} bits, budget is {budget}")
        if ring:
            if s is None:
                r = _shifted_residue(num, den, n - 1)
                s = [0] * (h - len(r)) + list(r[::-1])
            y = _poly_at(s, h - 1, x)
        else:
            y = a * pow(x, n - 1, d)
        top = x * (y % d)
        if stats is not None:
            stats.note(y)
            stats.note(top)
        yield top // d


def extraction_value(
    num: tuple[int, ...],
    den: tuple[int, ...],
    base: int,
    n: int,
    *,
    stats: EvalStats | None = None,
) -> int:
    """Value at n of the term build_extraction_term makes from the same data.

    It is extraction_values over range(n, n + 1), which computes
    x * (y mod D) // D at x = base^n, D = D(x), for a y congruent to
    x^(n-1) * N(x) mod D, and never forms base^(n^2); the route rule, the
    bit budget, the ValueErrors and the ``stats`` notes are those of
    extraction_values.
    """
    (value,) = extraction_values(num, den, base, range(n, n + 1), stats=stats)
    return value


def _summand(t: Term, base: int, numerator: bool) -> tuple[int, int] | None:
    """(j, coeff) when t is coeff*base^(n^2 + j*n) in a numerator, or
    coeff*base^(j*n) or the constant coeff (j = 0) in a denominator; else None.

    Every node is read, so t has that value at every n: coeff is an optional
    Const factor on the left of a mul, j*n is n (j = 1) or Const(j)*n, and
    j = 0 drops the j*n of a numerator exponent.  n^2 is the shared
    _N_SQUARED (an ``is`` test) or, as in a parsed or JSON term, equal to it:
    each == reads a subterm of two levels, so it recurses at most that deep.
    """
    coeff = 1
    if isinstance(t, BinOp) and t.op == "mul" and isinstance(t.left, Const):
        coeff, t = t.left.value, t.right
    if isinstance(t, Const) and not numerator:
        return 0, coeff * t.value
    if not (isinstance(t, BinOp) and t.op == "pow" and isinstance(t.left, Const) and t.left.value == base):
        return None
    expo = t.right
    if numerator:
        if expo is _N_SQUARED or expo == _N_SQUARED:
            return 0, coeff
        if not (isinstance(expo, BinOp) and expo.op == "add" and (expo.left is _N_SQUARED or expo.left == _N_SQUARED)):
            return None
        expo = expo.right
    match expo:
        case Var(name="n"):
            return 1, coeff
        case BinOp(op="mul", left=Const(value=j), right=Var(name="n")):
            return j, coeff
    return None


def _signed_sides(t: Term) -> tuple[Term, Term | None]:
    """(plus, minus) of a side that is a sum, or a sum -. a sum."""
    if isinstance(t, BinOp) and t.op == "truncsub":
        return t.left, t.right
    return t, None


def _summands(t: Term | None) -> list[Term]:
    out = []
    while isinstance(t, BinOp) and t.op == "add":
        out.append(t.right)
        t = t.left
    if t is not None:
        out.append(t)
    return out[::-1]


def _read_pairs(term: Term) -> tuple[list[list[tuple[int, int]]], int] | None:
    """The (j, coeff) pairs of the numerator's positive and negative parts
    and the denominator's, in a term of build_extraction_term's shape, and
    its base; None for other terms.

    A loop walks each sum and _summand reads each summand, which nests a
    fixed number of levels, so no call recurses once per nesting level.
    """
    match term:
        case BinOp(
            op="mod",
            left=BinOp(op="floordiv", left=num, right=den),
            right=BinOp(op="pow", left=Const(value=base), right=Var(name="n")),
        ) if base >= 2:
            pass
        case _:
            return None
    sides = []
    for side, numerator in ((num, True), (den, False)):
        for part in _signed_sides(side):
            pairs = [_summand(s, base, numerator) for s in _summands(part)]
            if None in pairs:
                return None
            sides.append(pairs)
    return sides, base


def _dense(sides: list[list[tuple[int, int]]], h: int, base: int) -> tuple:
    """(num, den, base), each side plus minus minus as a tuple of length h + 1."""
    coeffs = []
    for plus, minus in (sides[:2], sides[2:]):
        tup = [0] * (h + 1)
        for pairs, sign in ((plus, 1), (minus, -1)):
            for j, coeff in pairs:
                tup[h - j] += sign * coeff
        coeffs.append(tuple(tup))
    return (*coeffs, base)


# the read coefficients are dense tuples of length h + 1; a term whose
# multiples of n go past this is not read
_MAX_MATCHED_H = 1 << 12


def read_extraction(term: Term) -> tuple | None:
    """(num, den, base) read off a term of build_extraction_term's shape in
    the variable n, or None.

    h is the largest multiple of n seen, and num and den are padded with
    zeros to length h + 1.  Every node is read (see _summand), the shared
    n^2 by identity, which for a frozen node implies equality, so the term
    equals extraction_value of the result at every n, but the shape is read
    leniently: summands may come in any order, repeat or carry a factor 1
    or 0, and build_extraction_term need not give the term back.  Nothing
    recurses once per nesting level, and h past _MAX_MATCHED_H (4096) gives
    None before any tuple is built.
    """
    read = _read_pairs(term)
    if read is None:
        return None
    sides, base = read
    h = max(j for pairs in sides for j, _ in pairs)
    if h > _MAX_MATCHED_H:
        return None
    return _dense(sides, h, base)
