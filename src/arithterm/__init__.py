"""Exact closed-form arithmetic terms for C-recursive integer sequences.

The package turns a linear recurrence with constant rational coefficients
and integer values into a single arithmetic term E over +, truncated -, *,
floor division, powers and remainders, together with a base b and shift c
such that s(n) = E(n) - c^(n+1) for all n >= 1.  Everything is exact big
integer / Fraction arithmetic, and synthesis stays in the integers up to
the radius bound; verification replays terms against the recurrence.
"""

from .polys import (
    AlgebraError,
    int_poly_gcd,
    reduce_int_fraction,
)
from .recurrence import (
    NonIntegerTermError,
    Recurrence,
    SequenceWindow,
    eval_oracle,
    generating_function,
)
from .terms import (
    DEFAULT_BIT_BUDGET,
    BinOp,
    BudgetExceededError,
    Const,
    EvalStats,
    ParseError,
    Term,
    UnboundVariableError,
    Var,
    build_extraction_term,
    dump_term_json,
    evaluate,
    extraction_fraction,
    extraction_value,
    extraction_values,
    parse,
    read_extraction,
    render,
    term_from_json,
    term_to_json,
)
from .synthesis import (
    AllZeroSequenceError,
    BoundsCertificate,
    SynthesisError,
    SynthesisResult,
    synthesize,
)
from .catalog import (
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
from .verify import (
    Failure,
    VerificationReport,
    extraction_direct,
    verify_catalog,
    verify_term,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraError",
    "int_poly_gcd",
    "reduce_int_fraction",
    "NonIntegerTermError",
    "Recurrence",
    "SequenceWindow",
    "eval_oracle",
    "generating_function",
    "DEFAULT_BIT_BUDGET",
    "BinOp",
    "BudgetExceededError",
    "Const",
    "EvalStats",
    "ParseError",
    "Term",
    "UnboundVariableError",
    "Var",
    "build_extraction_term",
    "dump_term_json",
    "evaluate",
    "extraction_fraction",
    "extraction_value",
    "extraction_values",
    "parse",
    "read_extraction",
    "render",
    "term_from_json",
    "term_to_json",
    "AllZeroSequenceError",
    "BoundsCertificate",
    "SynthesisError",
    "SynthesisResult",
    "synthesize",
    "Fixture",
    "LucasParameterError",
    "LucasParams",
    "fibonacci_binomial_oracle",
    "fibonacci_convolution",
    "fixtures",
    "get_fixture",
    "lucas_closed_form_oracle",
    "lucas_U",
    "lucas_V",
    "pell_fundamental",
    "pell_recurrences",
    "Failure",
    "VerificationReport",
    "extraction_direct",
    "verify_catalog",
    "verify_term",
    "__version__",
]
