"""Command line interface.

Subcommands:

    synth SPEC       synthesize a representation for a recurrence
    eval TERM        evaluate a term at a point
    verify ...       replay a term, a synthesis result, or a fixture
    gf SPEC          print the cleared generating function
    expand SPEC      print the first terms of the sequence
    catalog ...      list or show the built-in fixtures

SPEC is a JSON object {"order": d, "coeffs": [...], "init": [...]} given as
a file path, '-' for stdin, or inline starting with '{'.  Coefficients can
be "p/q" strings for exact rationals.

Exit codes: 0 success, 1 usage or input errors or a blown bit budget, 2 the
recurrence generates the zero sequence, 3 a verification found a mismatch.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .catalog import fixtures, get_fixture
from .polys import format_poly
from .recurrence import NonIntegerTermError, Recurrence, _as_int, eval_oracle, generating_function
from .synthesis import AllZeroSequenceError, SynthesisError, synthesize
from .terms import (
    BudgetExceededError,
    ParseError,
    UnboundVariableError,
    dump_term_json,
    evaluate,
    parse,
    render,
    term_from_json,
    term_to_json,
)
from .verify import verify_term


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for the
    # zero-sequence case, so usage problems map to 1 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(1)


def _print_json(data: dict) -> None:
    """Print data as JSON with one top-level key per line.

    Each value is compact JSON from the C encoder; indent= would select the
    pure-Python encoder before Python 3.13.  The whole text is built before
    anything is printed, so a term too deep to encode prints nothing.
    """
    body = ",\n".join(f"  {json.dumps(key)}: {dump_term_json(value)}" for key, value in data.items())
    print("{\n" + body + "\n}")


def _load_spec(arg: str) -> Recurrence:
    if arg == "-":
        text = sys.stdin.read()
    elif arg.lstrip().startswith("{"):
        text = arg
    else:
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read spec file {arg!r}: {exc}") from None
    try:
        return Recurrence.from_json(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"spec is not valid JSON: {exc}") from None
    except RecursionError:
        # json.loads recurses once per nested array or object
        raise ValueError("spec nests too deeply") from None


def _load_result(path: str):
    """Recurrence, term and shift of a synth --format json file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            # json.load recurses once per nested array or object
            raise ValueError("result file nests too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("result file must be a JSON object")
    if "term_json" not in data:
        raise ValueError("result file is missing field 'term_json'")
    term = term_from_json(data["term_json"])
    try:
        rec = Recurrence.from_json_dict(data["recurrence"])
        return rec, term, _as_int(data["c"])
    except KeyError as exc:
        raise ValueError(f"result file is missing field {exc}") from None
    except TypeError as exc:
        # _as_int of a list, null, float or bool
        raise ValueError(f"malformed result file: {exc}") from None


def _cmd_synth(args) -> int:
    rec = _load_spec(args.spec)
    result = synthesize(rec, horizon=args.horizon, force_c=args.force_c, force_b=args.force_b)
    if args.format == "json":
        _print_json(result.to_json_dict())
        return 0
    cert = result.certificate
    print(f"term: {render(result.term, args.format)}")
    print(f"b: {result.b}")
    print(f"c: {result.c}")
    print(f"valid_at_zero: {'true' if result.valid_at_zero else 'false'}")
    print(f"certificate: c_t={cert.c_t} rho={cert.rho} b1={cert.b1} m={cert.m} b2={cert.b2}")
    proven = "" if result.certified_from is None else f", proven from n = {result.certified_from}"
    print(f"verified: n in [1, {result.report['checked_to']}]{proven}")
    return 0


def _cmd_eval(args) -> int:
    term = parse(args.term)
    env = {"n": args.n} if args.n is not None else {}
    for binding in args.env:
        name, sep, value = binding.partition("=")
        if not sep or not name.isidentifier() or not value.isdecimal():
            raise ValueError(f"bad --env binding {binding!r}, expected name=NAT")
        env[name] = int(value)
    print(evaluate(term, env))
    return 0


def _cmd_verify(args) -> int:
    # one source, and --shift only where no shift comes with it, so no
    # input is dropped without a word
    if [args.spec, args.fixture, args.result].count(None) != 2:
        raise ValueError("verify needs exactly one of SPEC TERM, --fixture or --result")
    if args.shift is not None and args.spec is None:
        raise ValueError("--shift is for the SPEC TERM form; a fixture or a result carries its own shift")
    n_lo = 1
    if args.fixture is not None:
        fix = get_fixture(args.fixture)
        rec, term, c, n_lo = fix.recurrence, fix.term, fix.shift, fix.valid_from
    elif args.result is not None:
        rec, term, c = _load_result(args.result)
    else:
        if args.term is None:
            raise ValueError("verify needs SPEC and TERM, or --fixture, or --result")
        rec, term, c = _load_spec(args.spec), parse(args.term), args.shift or 0
    if args.n_from is not None:
        n_lo = args.n_from
    n_hi = args.n_to
    # before the oracle expands s(0..n_hi), which a bad range can make huge
    if n_lo < 0 or n_hi < n_lo:
        raise ValueError("need 0 <= n_lo <= n_hi")
    oracle = eval_oracle(rec, n_hi + 1).values
    report = verify_term(oracle, term, c, n_lo, n_hi)
    if args.json:
        _print_json(report.to_json_dict())
    elif report.ok:
        print(f"ok: checked n in [{report.n_lo}, {report.n_hi}]")
    elif report.aborted is not None:
        print(f"aborted: {report.aborted}")
    else:
        fail = report.first_failure
        print(f"FAIL at n={fail.n}: expected {fail.expected}, got {fail.got}")
    return 0 if report.ok else 3


def _cmd_gf(args) -> int:
    rec = _load_spec(args.spec)
    num, den = generating_function(rec, args.shift)
    num_str, den_str = format_poly(num), format_poly(den)
    if " " in num_str:
        num_str = f"({num_str})"
    if " " in den_str:
        den_str = f"({den_str})"
    print(f"{num_str} / {den_str}")
    return 0


def _cmd_expand(args) -> int:
    rec = _load_spec(args.spec)
    window = eval_oracle(rec, args.n)
    print(" ".join(str(v) for v in window.values))
    return 0


def _cmd_catalog(args) -> int:
    if args.which == "list":
        for fix in fixtures():
            print(
                f"{fix.id:12} b={fix.base:<4} c={fix.shift:<2} "
                f"valid_from={fix.valid_from:<2} {fix.notes}"
            )
        return 0
    fix = get_fixture(args.id)
    if args.json:
        _print_json(
            {
                "id": fix.id,
                "recurrence": fix.recurrence.to_json_dict(),
                "b": fix.base,
                "c": fix.shift,
                "valid_from": fix.valid_from,
                "term": render(fix.term),
                "term_json": term_to_json(fix.term),
                "notes": fix.notes,
            }
        )
        return 0
    print(f"id: {fix.id}")
    print(f"recurrence: order={fix.recurrence.order} coeffs={[str(c) for c in fix.recurrence.coeffs]} init={list(fix.recurrence.init)}")
    print(f"b: {fix.base}")
    print(f"c: {fix.shift}")
    print(f"valid_from: {fix.valid_from}")
    print(f"term: {render(fix.term)}")
    if fix.notes:
        print(f"notes: {fix.notes}")
    return 0


@functools.cache
def _build_parser() -> _ArgumentParser:
    # built on the first main call and reused: parse_args leaves the parser
    # unchanged, and --env's append action copies its default list
    parser = _ArgumentParser(prog="arithterm", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a representation for a recurrence")
    p.add_argument("spec", metavar="SPEC")
    p.add_argument("--horizon", type=int, default=40, help="direct-check up to this index where no proof covers every n")
    p.add_argument("--force-b", type=int, default=None, help="use this base instead of searching")
    p.add_argument("--force-c", type=int, default=None, help="use this shift instead of searching")
    p.add_argument("--format", choices=("text", "latex", "json"), default="text")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("eval", help="evaluate a term")
    p.add_argument("term", metavar="TERM")
    p.add_argument("--n", type=int, default=None, help="value for the variable n")
    p.add_argument("--env", action="append", default=[], metavar="NAME=VALUE")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("verify", help="replay a term against its recurrence")
    p.add_argument("spec", metavar="SPEC", nargs="?")
    p.add_argument("term", metavar="TERM", nargs="?")
    p.add_argument("--fixture", default=None, help="verify a catalog fixture by id")
    p.add_argument("--result", default=None, help="verify a JSON file produced by synth --format json")
    p.add_argument("--shift", type=int, default=None, help="shift c for the SPEC TERM form (default 0)")
    p.add_argument("--from", dest="n_from", type=int, default=None)
    p.add_argument("--to", dest="n_to", type=int, default=40)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gf", help="print the cleared generating function")
    p.add_argument("spec", metavar="SPEC")
    p.add_argument("--shift", type=int, default=0, help="add the series of c^(n+1) first")
    p.set_defaults(func=_cmd_gf)

    p = sub.add_parser("expand", help="print the first terms of the sequence")
    p.add_argument("spec", metavar="SPEC")
    p.add_argument("--n", type=int, default=10, help="how many terms")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("catalog", help="list or show the built-in fixtures")
    csub = p.add_subparsers(dest="which", required=True)
    c = csub.add_parser("list")
    c.set_defaults(func=_cmd_catalog)
    c = csub.add_parser("show")
    c.add_argument("id")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=_cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    try:
        return args.func(args)
    except AllZeroSequenceError as exc:
        print(f"arithterm: {exc}", file=sys.stderr)
        return 2
    except (
        ParseError,
        NonIntegerTermError,
        SynthesisError,
        BudgetExceededError,
        UnboundVariableError,
        ValueError,
        OSError,
    ) as exc:
        print(f"arithterm: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
