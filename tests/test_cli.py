import io
import json
import re
import sys

import arithterm.cli as cli
from arithterm.catalog import fixtures, get_fixture
from arithterm.cli import main
from arithterm.recurrence import Recurrence, generating_function
from arithterm.terms import parse, render, term_from_json, term_to_json

FIB = '{"order": 2, "coeffs": [-1, -1], "init": [0, 1]}'
FIB_TERM = "fl(3^(n^2 + n) / (3^(2*n) -. (3^n + 1))) % 3^n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_synth_text_output(capsys):
    code, out, err = run(capsys, "synth", FIB)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"term: {FIB_TERM}"
    assert "b: 3" in lines
    assert "c: 0" in lines
    assert not any(line.startswith("valid_from") for line in lines)
    assert "valid_at_zero: true" in lines
    assert any(line.startswith("certificate: c_t=") for line in lines)
    # the dominance window proves every n >= 3, so only n = 1, 2 are replayed
    assert lines[-1] == "verified: n in [1, 2], proven from n = 3"


def test_synth_latex_output(capsys):
    code, out, _ = run(capsys, "synth", FIB, "--format", "latex")
    assert code == 0
    assert "\\left\\lfloor" in out
    assert "\\bmod" in out


def test_synth_json_then_verify_result(capsys, tmp_path):
    code, out, _ = run(capsys, "synth", FIB, "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["b"] == 3
    assert blob["c"] == 0
    assert "valid_from" not in blob
    assert parse(blob["term"]) == term_from_json(blob["term_json"])

    path = tmp_path / "result.json"
    path.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--result", str(path))
    assert code == 0
    assert out.strip() == "ok: checked n in [1, 40]"


def test_synth_all_zero_exit_code(capsys):
    code, _, err = run(capsys, "synth", '{"order": 1, "coeffs": [2], "init": [0]}')
    assert code == 2
    assert "arithterm:" in err


def test_synth_bad_spec_exit_code(capsys):
    code, _, err = run(capsys, "synth", '{"order": 2}')
    assert code == 1
    assert "arithterm:" in err
    code, _, err = run(capsys, "synth", "no-such-file.json")
    assert code == 1
    assert "cannot read spec file" in err


def test_gf_output(capsys):
    code, out, _ = run(capsys, "gf", FIB)
    assert code == 0
    assert out.strip() == "z / (1 - z - z^2)"


def test_gf_shift_output(capsys):
    code, out, _ = run(capsys, "gf", FIB, "--shift", "2")
    assert code == 0
    assert out.strip() == "(2 - z - 4z^2) / (1 - 3z + z^2 + 2z^3)"
    code, out, _ = run(capsys, "gf", '{"order": 2, "coeffs": ["-5/2", 1], "init": [1, 2]}', "--shift", "3")
    assert code == 0
    # 1/(1 - 2z) + 3/(1 - 3z)
    assert out.strip() == "(4 - 9z) / (1 - 5z + 6z^2)"


def _read_poly(text):
    """Int coefficients of a polynomial written as format_poly writes it."""
    coeffs = {}
    for tok in text.strip("()").replace(" - ", " + -").split(" + "):
        sign, digits, var, exp = re.fullmatch(r"(-?)(\d*)(z(?:\^(\d+))?)?", tok).groups()
        coeffs[int(exp or 1) if var else 0] = int(digits or 1) * (-1 if sign else 1)
    return tuple(coeffs.get(k, 0) for k in range(max(coeffs) + 1))


def test_gf_output_reads_back_as_the_generating_function_on_every_fixture(capsys):
    rational = Recurrence(2, ("-1/2", "1/3"), (3, 6))
    cases = [(fix.recurrence, c) for fix in fixtures() for c in {0, 1, fix.shift}] + [(rational, 0), (rational, 3)]
    for rec, c in cases:
        code, out, _ = run(capsys, "gf", json.dumps(rec.to_json_dict()), "--shift", str(c))
        assert code == 0
        num, den = out.rstrip("\n").split(" / ")
        assert (_read_poly(num), _read_poly(den)) == generating_function(rec, c)
        # parentheses exactly around the sums
        assert num.startswith("(") == (" " in num) and den.startswith("(") == (" " in den)
    assert out == "(36 - 36z - 75z^2) / (6 - 21z + 11z^2 - 6z^3)\n"


def test_expand_output(capsys):
    code, out, _ = run(capsys, "expand", FIB, "--n", "10")
    assert code == 0
    assert out.strip() == "0 1 1 2 3 5 8 13 21 34"


def test_expand_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(FIB))
    code, out, _ = run(capsys, "expand", "-", "--n", "5")
    assert code == 0
    assert out.strip() == "0 1 1 2 3"


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", FIB_TERM, "--n", "10")
    assert code == 0
    assert out.strip() == "55"


def test_eval_env_bindings(capsys):
    code, out, _ = run(capsys, "eval", "x + 2*y", "--env", "x=3", "--env", "y=4")
    assert code == 0
    assert out.strip() == "11"
    code, _, err = run(capsys, "eval", "x", "--env", "x=-1")
    assert code == 1
    assert "expected name=NAT" in err


def test_eval_parse_error(capsys):
    code, _, err = run(capsys, "eval", "1 - 2")
    assert code == 1
    assert "arithterm:" in err


def test_eval_refuses_a_digit_that_is_not_decimal(capsys):
    # '²' passes str.isdigit, but int() does not read it
    code, out, err = run(capsys, "eval", "2²")
    assert (code, out, err) == (1, "", "arithterm: unexpected character '²' (at position 1)\n")
    code, out, err = run(capsys, "eval", "n", "--env", "n=²")
    assert (code, out, err) == (1, "", "arithterm: bad --env binding 'n=²', expected name=NAT\n")
    # Arabic-Indic digits are decimal, and int() reads them
    assert run(capsys, "eval", "n + ١", "--env", "n=٣")[:2] == (0, "4\n")


def test_synth_reads_a_spec_file(capsys, tmp_path):
    path = tmp_path / "fib.json"
    path.write_text(FIB, encoding="utf-8")
    code, out, _ = run(capsys, "synth", str(path))
    assert code == 0
    assert out.splitlines()[0] == f"term: {FIB_TERM}"


def test_synth_refuses_a_spec_file_that_is_not_json(capsys, tmp_path):
    path = tmp_path / "fib.txt"
    path.write_text("order 2, coeffs -1 -1", encoding="utf-8")
    code, out, err = run(capsys, "synth", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("arithterm: spec is not valid JSON: ") and err.count("\n") == 1


def test_verify_prints_an_aborted_replay(capsys):
    # 2^(2^30) is past the bit budget at the first index replayed
    code, out, err = run(capsys, "verify", FIB, "2^(2^30) % 7", "--to", "3")
    assert code == 3 and err == ""
    assert out.startswith("aborted: n=1: ") and out.count("\n") == 1


def test_eval_blown_budget_is_one_line_error(capsys):
    code, out, err = run(capsys, "eval", "2^2^2^2^2^2")
    assert code == 1
    assert out == ""
    assert err.startswith("arithterm: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_eval_unbound_variable_is_one_line_error(capsys):
    code, out, err = run(capsys, "eval", "m + 1", "--n", "3")
    assert code == 1
    assert out == ""
    assert err == "arithterm: unbound variable: m\n"


def test_eval_deeply_nested_term_is_one_line_error(capsys):
    # a left-deep sum overflows evaluate's recursion, nested parentheses the parser's
    for src in ("+".join(["1"] * 3000), "(" * 2000 + "1" + ")" * 2000):
        code, out, err = run(capsys, "eval", src)
        assert code == 1
        assert out == ""
        assert err == "arithterm: term nests too deeply\n"


def test_synth_json_of_a_deep_term_is_a_result_or_one_line_error(capsys):
    # s(n) = s(n - 520) has 520 numerator summands: term_to_json still walks
    # the term, and json.dumps needs two levels per term level, which is past
    # the recursion limit of some supported interpreters
    order = 520
    spec = json.dumps({"order": order, "coeffs": [0] * (order - 1) + [-1], "init": list(range(1, order + 1))})
    code, out, err = run(capsys, "synth", spec, "--horizon", "3", "--format", "json")
    if code == 0:
        blob = json.loads(out)
        assert err == ""
        assert parse(blob["term"]) == term_from_json(blob["term_json"])
    else:
        assert (code, out, err) == (1, "", "arithterm: term nests too deeply\n")


def test_deeply_nested_json_is_one_line_error(capsys, tmp_path):
    # json.loads recurses once per nested array or object; 100000 levels is
    # past the limit of every supported interpreter, C or Python
    depth = 100_000
    code, out, err = run(capsys, "synth", '{"order": ' + "[" * depth + "]" * depth + "}")
    assert (code, out, err) == (1, "", "arithterm: spec nests too deeply\n")
    path = tmp_path / "result.json"
    path.write_text("[" * depth + "]" * depth, encoding="utf-8")
    code, out, err = run(capsys, "verify", "--result", str(path))
    assert (code, out, err) == (1, "", "arithterm: result file nests too deeply\n")


def test_verify_result_with_a_deep_term_json_is_one_line_error(capsys, tmp_path):
    # about 2,200 JSON levels: json.load fails where the interpreter's C
    # recursion limit is low, term_from_json where it is not
    depth = 1100
    node = '{"op": "add", "args": [' * depth + '{"const": "1"}' + ', {"const": "1"}]}' * depth
    path = tmp_path / "result.json"
    path.write_text(f'{{"recurrence": {FIB}, "c": 0, "term_json": {node}}}', encoding="utf-8")
    code, out, err = run(capsys, "verify", "--result", str(path))
    assert (code, out) == (1, "")
    assert err in ("arithterm: result file nests too deeply\n", "arithterm: term nests too deeply\n")


def test_verify_malformed_result_is_one_line_error(capsys, tmp_path):
    term_json = {"const": "0"}
    cases = [
        ([], "result file must be a JSON object"),
        ({"recurrence": json.loads(FIB), "c": 0}, "result file is missing field 'term_json'"),
        # synth --format json always writes term_json; a term string alone is not read
        ({"recurrence": json.loads(FIB), "c": 0, "term": FIB_TERM}, "result file is missing field 'term_json'"),
        ({"recurrence": json.loads(FIB), "term_json": term_json}, "result file is missing field 'c'"),
        ({"c": 0, "term_json": term_json}, "result file is missing field 'recurrence'"),
        ({"recurrence": [], "c": 0, "term_json": term_json}, "recurrence spec must be a JSON object"),
        ({"recurrence": json.loads(FIB), "c": [], "term_json": term_json}, "malformed result file: "),
        ({"recurrence": json.loads(FIB), "c": 0, "term_json": {"var": 1}}, "variable name must be a string: 1"),
    ]
    path = tmp_path / "result.json"
    for blob, message in cases:
        path.write_text(json.dumps(blob), encoding="utf-8")
        code, out, err = run(capsys, "verify", "--result", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("arithterm: " + message) and err.count("\n") == 1


def test_verify_refuses_a_shift_that_is_not_a_natural_number(capsys, tmp_path):
    # A088137's shift is 3: int() would read 3.7 as 3 and verify it, and
    # true as 1
    fix = get_fixture("A088137")
    blob = {"recurrence": fix.recurrence.to_json_dict(), "term_json": term_to_json(fix.term)}
    path = tmp_path / "result.json"
    for c, message in (
        (3.7, "malformed result file: expected int, str or Fraction, got float"),
        (True, "malformed result file: expected int, str or Fraction, got bool"),
        (-1, "shift must be a natural number"),
        ("1/0", "zero denominator in '1/0'"),
    ):
        path.write_text(json.dumps({**blob, "c": c}), encoding="utf-8")
        code, out, err = run(capsys, "verify", "--result", str(path))
        assert (code, out, err) == (1, "", f"arithterm: {message}\n")
    code, out, err = run(capsys, "verify", FIB, FIB_TERM, "--shift", "-1")
    assert (code, out, err) == (1, "", "arithterm: shift must be a natural number\n")


def test_synth_malformed_spec_is_one_line_error(capsys):
    wrong_type = "malformed recurrence spec: expected int, str or Fraction"
    for spec, message in (
        ('{"order": [], "coeffs": [-1], "init": [1]}', "malformed recurrence spec: "),
        ('{"order": 1, "coeffs": [0.5], "init": [1]}', wrong_type),
        ('{"order": 1, "coeffs": [-1], "init": [[1]]}', "malformed recurrence spec: "),
        # a float or bool order or initial value is refused, not truncated
        ('{"order": 2.7, "coeffs": [-1, -1], "init": [0, 1.9]}', wrong_type),
        ('{"order": 2, "coeffs": [-1, -1], "init": [0, 1.9]}', wrong_type),
        ('{"order": true, "coeffs": [-1], "init": [1]}', wrong_type),
        ('{"order": 1, "coeffs": [-1], "init": [true]}', wrong_type),
        ('{"order": 1, "coeffs": [-1], "init": ["1/2"]}', "expected an integer, got '1/2'"),
        ('{"order": 1, "coeffs": ["1/0"], "init": [1]}', "zero denominator in '1/0'"),
        ('{"order": 1, "coeffs": [-1], "init": ["1/0"]}', "zero denominator in '1/0'"),
    ):
        for command in ("synth", "expand"):
            code, out, err = run(capsys, command, spec)
            assert (code, out) == (1, "")
            assert err.startswith("arithterm: " + message) and err.count("\n") == 1


def test_verify_fixture(capsys):
    code, out, _ = run(capsys, "verify", "--fixture", "A000045", "--to", "30")
    assert code == 0
    assert out.strip() == "ok: checked n in [0, 30]"


def test_verify_fixture_far_point(capsys):
    # evaluate would build 3^(7000^2), past the bit budget; the fast path does not
    code, out, _ = run(capsys, "verify", "--fixture", "A000045", "--from", "7000", "--to", "7000")
    assert code == 0
    assert out.strip() == "ok: checked n in [7000, 7000]"


def test_verify_fixture_far_point_at_n_10000(capsys):
    code, out, _ = run(capsys, "verify", "--fixture", "A001081", "--from", "10000", "--to", "10000")
    assert code == 0
    assert out.strip() == "ok: checked n in [10000, 10000]"


def test_verify_checks_its_range_before_expanding_the_oracle(capsys, monkeypatch):
    # s(0..50000) alone would be about 100 MB; --to -3 is a range, not a count
    def eval_oracle(*args):
        raise AssertionError("eval_oracle called")

    monkeypatch.setattr(cli, "eval_oracle", eval_oracle)
    for argv in (("--from", "60000", "--to", "50000"), ("--to", "-3")):
        code, out, err = run(capsys, "verify", "--fixture", "A000045", *argv)
        assert (code, out) == (1, "")
        assert err == "arithterm: need 0 <= n_lo <= n_hi\n"


def test_verify_mismatch_exit_code(capsys):
    code, out, _ = run(capsys, "verify", FIB, "n", "--to", "10")
    assert code == 3
    assert out.strip() == "FAIL at n=2: expected 1, got 2"


def test_verify_spec_term_ok(capsys):
    code, out, _ = run(capsys, "verify", FIB, FIB_TERM, "--from", "0", "--to", "25")
    assert code == 0
    assert out.strip() == "ok: checked n in [0, 25]"


def test_verify_json_report(capsys):
    code, out, _ = run(capsys, "verify", FIB, "n", "--to", "10", "--json")
    assert code == 3
    blob = json.loads(out)
    assert blob["ok"] is False
    assert blob["first_failure"] == {"n": 2, "expected": 1, "got": 2}


def test_verify_missing_arguments(capsys):
    code, _, err = run(capsys, "verify", FIB)
    assert code == 1
    assert "verify needs" in err


def test_verify_refuses_a_shift_it_would_not_apply(capsys, tmp_path):
    # A088137's result has c = 3: a --shift 7 beside it was dropped, and
    # the replay printed ok for a shift it never applied
    code, out, _ = run(capsys, "synth", '{"order": 2, "coeffs": [-2, 3], "init": [0, 1]}', "--format", "json")
    assert code == 0 and json.loads(out)["c"] == 3
    path = tmp_path / "a.json"
    path.write_text(out, encoding="utf-8")
    message = "arithterm: --shift is for the SPEC TERM form; a fixture or a result carries its own shift\n"
    # --shift 0 too: the source's own shift is used, not a default
    for argv in (
        ("--result", str(path), "--shift", "7"),
        ("--fixture", "A000045", "--shift", "2"),
        ("--fixture", "A000045", "--shift", "0"),
    ):
        code, out, err = run(capsys, "verify", *argv, "--to", "10")
        assert (code, out, err) == (1, "", message)


def test_verify_takes_exactly_one_source(capsys, tmp_path):
    # SPEC TERM beside --fixture, or --fixture beside --result, was dropped
    # without a word: the fixture won
    code, out, _ = run(capsys, "synth", FIB, "--format", "json")
    path = tmp_path / "r.json"
    path.write_text(out, encoding="utf-8")
    message = "arithterm: verify needs exactly one of SPEC TERM, --fixture or --result\n"
    for argv in (
        (FIB, "n", "--fixture", "A000045"),
        ("--fixture", "A000045", "--result", str(path)),
        (FIB, FIB_TERM, "--result", str(path)),
        (),
    ):
        code, out, err = run(capsys, "verify", *argv, "--to", "10")
        assert (code, out, err) == (1, "", message), argv
    # the shift of the SPEC TERM form still defaults to 0
    code, out, _ = run(capsys, "verify", FIB, FIB_TERM, "--to", "10")
    assert (code, out) == (0, "ok: checked n in [1, 10]\n")


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 23
    assert any(line.startswith("A000045") for line in lines)


def test_catalog_show(capsys):
    code, out, _ = run(capsys, "catalog", "show", "A000045")
    assert code == 0
    assert "id: A000045" in out
    assert "b: 3" in out
    assert f"term: {FIB_TERM}" in out


def test_catalog_show_json(capsys):
    code, out, _ = run(capsys, "catalog", "show", "A000129", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["id"] == "A000129"
    assert blob["b"] == 3
    assert parse(blob["term"]) == term_from_json(blob["term_json"])


def test_catalog_show_unknown_id(capsys):
    code, _, err = run(capsys, "catalog", "show", "A999999")
    assert code == 1
    assert "arithterm:" in err


def test_usage_errors_exit_one(capsys):
    assert run(capsys, )[0] == 1
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys, "synth")[0] == 1


def test_the_reused_parser_keeps_no_state_between_calls(capsys):
    assert cli._build_parser() is cli._build_parser()
    # --env appends to a copy of its default list, not to the default itself
    assert run(capsys, "eval", "x", "--env", "x=3")[:2] == (0, "3\n")
    assert run(capsys, "eval", "x") == (1, "", "arithterm: unbound variable: x\n")
    code, out, _ = run(capsys, "synth", FIB, "--force-b", "5")
    assert code == 0 and "b: 5" in out.splitlines()
    code, out, _ = run(capsys, "synth", FIB)
    assert code == 0 and "b: 3" in out.splitlines()
    assert run(capsys, "synth", "--horizon")[0] == 1
    assert run(capsys, "expand", FIB, "--n", "3") == (0, "0 1 1\n", "")
    code, first, _ = run(capsys, "synth", "--help")
    assert code == 0 and first.startswith("usage: arithterm synth")
    assert run(capsys, "synth", "--help") == (0, first, "")


def _assert_json_layout(out, data):
    """One top-level key per line, in data's order, and data's content."""
    lines = out.splitlines()
    assert lines[0] == "{" and lines[-1] == "}"
    assert len(lines) == len(data) + 2
    for i, (line, key) in enumerate(zip(lines[1:-1], data)):
        prefix = f"  {json.dumps(key)}: "
        assert line.startswith(prefix)
        assert line.endswith(",") == (i < len(data) - 1)
    assert json.loads(out) == json.loads(json.dumps(data))


def test_json_outputs_print_one_top_level_key_per_line(capsys, monkeypatch):
    # record the results and reports the commands print, to compare with
    real_synthesize, real_verify_term = cli.synthesize, cli.verify_term
    results, reports = [], []

    def synthesize(*args, **kwargs):
        results.append(real_synthesize(*args, **kwargs))
        return results[-1]

    def verify_term(*args):
        reports.append(real_verify_term(*args))
        return reports[-1]

    monkeypatch.setattr(cli, "synthesize", synthesize)
    monkeypatch.setattr(cli, "verify_term", verify_term)
    for fix in fixtures():
        code, out, _ = run(capsys, "synth", json.dumps(fix.recurrence.to_json_dict()), "--format", "json")
        assert code == 0
        _assert_json_layout(out, results[-1].to_json_dict())
        code, out, _ = run(capsys, "catalog", "show", fix.id, "--json")
        assert code == 0
        shown = {
            "id": fix.id,
            "recurrence": fix.recurrence.to_json_dict(),
            "b": fix.base,
            "c": fix.shift,
            "valid_from": fix.valid_from,
            "term": render(fix.term),
            "term_json": term_to_json(fix.term),
            "notes": fix.notes,
        }
        _assert_json_layout(out, shown)
    for argv, expected_code in ((("--fixture", "A000045", "--to", "30"), 0), ((FIB, "n", "--to", "10"), 3)):
        code, out, _ = run(capsys, "verify", *argv, "--json")
        assert code == expected_code
        _assert_json_layout(out, reports[-1].to_json_dict())
