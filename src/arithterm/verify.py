"""Replay checks: does a term actually reproduce its sequence?

``verify_term`` compares term values (minus the shift part) against oracle
values over an index range and reports the first mismatch, elapsed time in
integer nanoseconds, and the largest intermediate seen.  A term that
``read_extraction`` reads as extraction data (num, den, base), with h at
most 4096, is replayed through ``extraction_values``, which works modulo
D = D(b^n) and never forms b^(n^2); any other term goes through the
reference evaluator ``evaluate``.  read_extraction reads every node, so
both give the same values, but ``peak_bits`` then measures different
computations: O(h*n*log b) bits on the fast path against O(n^2*log b)
through ``evaluate``.  How the fast path reduces modulo D is the route
rule in the ``extraction_values`` docstring.
``verify_catalog`` replays every catalog fixture.  ``extraction_direct``
recomputes the digit extraction by evaluating the generating function's
(num, den) pair at b^(-n) in exact Fractions, completely bypassing both
term evaluators, for two-path cross-checks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .catalog import fixtures
from .polys import AlgebraError
from .recurrence import eval_oracle
from .terms import BudgetExceededError, EvalStats, Term, evaluate, extraction_values, read_extraction


@dataclass(frozen=True, slots=True)
class Failure:
    n: int
    expected: int
    got: int | None


@dataclass(frozen=True, slots=True)
class VerificationReport:
    """Outcome of one replay over [n_lo, n_hi].

    ``checked`` counts the indices evaluated, the failing one included.
    ``peak_bits`` is the bit length of the largest intermediate of the
    evaluations: through ``extraction_values`` for terms
    ``read_extraction`` reads (it reads none with h past 4096, so that the
    dense data stays small), else through ``evaluate``.
    ``extraction_values`` works modulo D = D(x) at x = b^n, and its
    intermediates stay O(h*n*log b) bits; how far below that depends on
    the route its docstring gives.
    ``aborted`` carries the index and message of a blown bit budget.
    """

    n_lo: int
    n_hi: int
    checked: int
    first_failure: Failure | None
    elapsed_ns: int
    peak_bits: int
    aborted: str | None = None

    @property
    def ok(self) -> bool:
        return self.first_failure is None and self.aborted is None

    def to_json_dict(self) -> dict:
        failure = None
        if self.first_failure is not None:
            failure = {
                "n": self.first_failure.n,
                "expected": self.first_failure.expected,
                "got": self.first_failure.got,
            }
        return {
            "range": [self.n_lo, self.n_hi],
            "ok": self.ok,
            "checked": self.checked,
            "first_failure": failure,
            "peak_bits": self.peak_bits,
            "elapsed_ns": self.elapsed_ns,
            "aborted": self.aborted,
        }


def verify_term(
    oracle: Sequence[int],
    term: Term,
    c: int,
    n_lo: int,
    n_hi: int,
) -> VerificationReport:
    """Check term(n) - c^(n+1) == oracle[n] for n in [n_lo, n_hi].

    Stops at the first mismatch.  ``oracle`` must cover indices up to n_hi.
    A blown evaluation budget aborts the run and is reported as such rather
    than as a mismatch.  The term's variable is n; terms that
    read_extraction reads are evaluated by extraction_values over the
    whole range, all others by evaluate at each n.  read_extraction reads
    no term with h past 4096, and checks that before it builds the
    coefficient tuples.  A shift c below 0 raises ValueError, as in
    generating_function.
    """
    if n_lo < 0 or n_hi < n_lo:
        raise ValueError("need 0 <= n_lo <= n_hi")
    if c < 0:
        raise ValueError("shift must be a natural number")
    if len(oracle) <= n_hi:
        raise ValueError(f"oracle covers {len(oracle)} values, need {n_hi + 1}")
    stats = EvalStats()
    started = time.monotonic_ns()
    ns = range(n_lo, n_hi + 1)
    params = read_extraction(term)
    if params is not None:
        values = extraction_values(*params, ns, stats=stats)
    else:
        values = (evaluate(term, {"n": n}, stats=stats) for n in ns)
    checked = 0
    first_failure = None
    aborted = None
    shift = c ** (n_lo + 1)
    for n in ns:
        try:
            got = next(values) - shift
        except BudgetExceededError as exc:
            aborted = f"n={n}: {exc}"
            break
        checked += 1
        if got != oracle[n]:
            first_failure = Failure(n=n, expected=oracle[n], got=got)
            break
        shift *= c
    return VerificationReport(
        n_lo=n_lo,
        n_hi=n_hi,
        checked=checked,
        first_failure=first_failure,
        elapsed_ns=time.monotonic_ns() - started,
        peak_bits=stats.peak_bits,
        aborted=aborted,
    )


def verify_catalog(horizon: int = 40) -> list[tuple[str, VerificationReport]]:
    """Replay every catalog fixture from its valid_from up to the horizon."""
    out = []
    for fix in fixtures():
        oracle = eval_oracle(fix.recurrence, horizon + 1).values
        report = verify_term(oracle, fix.term, fix.shift, fix.valid_from, horizon)
        out.append((fix.id, report))
    return out


def extraction_direct(gf: tuple[Sequence[int], Sequence[int]], b: int, n: int) -> int:
    """floor(b^(n^2) * num(b^(-n)) / den(b^(-n))) mod b^n through exact
    Fractions, for gf = (num, den) as generating_function returns it.

    This is the representation read off the power series itself, sharing no
    code with the term evaluator, so agreement between the two is evidence
    the term encodes the right expression.  Requires n >= 1; a pole of the
    generating function at b^(-n) raises AlgebraError.
    """
    if b < 2:
        raise ValueError("base must be at least 2")
    if n < 1:
        raise ValueError("n must be at least 1")
    x = Fraction(1, b**n)
    num, den = (sum(c * x**k for k, c in enumerate(p)) for p in gf)
    if den == 0:
        raise AlgebraError("evaluation at a pole")
    value = num / den * b ** (n * n)
    return (value.numerator // value.denominator) % b**n
