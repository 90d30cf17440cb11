import dataclasses
import hashlib
import json
import random
import time
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from arithterm import terms
from arithterm.catalog import fixtures
from arithterm.terms import (
    BinOp,
    BudgetExceededError,
    Const,
    EvalStats,
    ParseError,
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
from arithterm.verify import verify_term


def ev(src, **env):
    return evaluate(parse(src), env)


# --- evaluation conventions -------------------------------------------------


def test_zero_power_zero_is_one():
    assert ev("0^0") == 1


def test_floor_division_by_zero_is_zero():
    assert ev("5 / 0") == 0
    assert ev("0 / 0") == 0


def test_mod_zero_is_identity():
    assert ev("7 % 0") == 7


def test_mod_one_is_zero():
    assert ev("7 % 1") == 0


def test_truncated_subtraction_clamps():
    assert ev("3 -. 5") == 0
    assert ev("5 -. 3") == 2
    assert ev("3 -. 3") == 0


def test_mod_matches_its_definition():
    for x in range(20):
        for y in range(6):
            expected = x - y * (x // y) if y else x
            assert ev(f"{x} % {y}") == expected


def test_basic_arithmetic_and_precedence():
    assert ev("1 + 2*3") == 7
    assert ev("2^3^2") == 512  # right associative
    assert ev("3 + 5 % 4") == 0  # mod binds loosest
    assert ev("2*3 -. 4 / 2") == 4
    assert ev("(1 + 2)*3") == 9


def test_variables_and_env():
    assert ev("n^2 + n", n=5) == 30
    assert ev("a*b", a=6, b=7) == 42
    with pytest.raises(UnboundVariableError):
        ev("n + 1")
    with pytest.raises(ValueError):
        evaluate(Var("n"), {"n": -1})


def test_env_values_must_be_ints():
    # a float would silently leave the naturals: n + 1 at 2.5 was 3.5
    for bad in (2.5, 2.0, True, "2", None):
        with pytest.raises(TypeError):
            evaluate(parse("n + 1"), {"n": bad})


def test_constants_are_natural():
    with pytest.raises(ValueError):
        Const(-1)
    with pytest.raises(TypeError):
        Const("3")


def test_power_budget(monkeypatch):
    with pytest.raises(BudgetExceededError):
        ev("2^(2^100)")
    # small budgets also stop products
    big = BinOp("mul", Const(2**100), Const(2**100))
    monkeypatch.setattr(terms, "DEFAULT_BIT_BUDGET", 150)
    with pytest.raises(BudgetExceededError):
        evaluate(big)


def test_power_budget_message_survives_huge_exponents():
    # the exponent 9^4510 has 4,304 digits, past the int-to-str limit of 4,300
    with pytest.raises(BudgetExceededError, match="bit exponent"):
        evaluate(parse("n^((9^82)^55)"), {"n": 3})


def test_deep_terms_raise_budget_exceeded():
    # a left-deep sum past the recursion limit: the parser builds it in a
    # loop, but every walker recurses through it
    deep = parse("+".join(["1"] * 3000))
    for walk in (evaluate, render, term_to_json, lambda t: render(t, "latex")):
        with pytest.raises(BudgetExceededError, match="^term nests too deeply$"):
            walk(deep)


def test_deep_term_json_raises_typed_errors():
    node = {"const": "1"}
    for _ in range(3000):
        node = {"op": "add", "args": [node, {"const": "1"}]}
    with pytest.raises(ParseError, match="^term nests too deeply$"):
        term_from_json(node)
    # past the C recursion limit of every supported interpreter too
    deep = []
    for _ in range(100_000):
        deep = [deep]
    with pytest.raises(BudgetExceededError, match="^term nests too deeply$"):
        dump_term_json(deep)


def test_deep_parentheses_raise_parse_error():
    with pytest.raises(ParseError, match="^term nests too deeply$") as err:
        parse("(" * 2000 + "1" + ")" * 2000)
    assert err.value.position is None


def test_eval_stats_track_peak():
    stats = EvalStats()
    evaluate(parse("2^10 + 1"), stats=stats)
    assert stats.peak_bits == 11


# --- parsing ----------------------------------------------------------------


def test_parse_rejects_plain_minus():
    with pytest.raises(ParseError) as err:
        parse("3 - 2")
    assert "-." in str(err.value)
    assert err.value.position == 2


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse("1 + ")
    assert err.value.position == 4
    with pytest.raises(ParseError) as err:
        parse("(1 + 2")
    assert err.value.position == 6
    with pytest.raises(ParseError) as err:
        parse("1 ? 2")
    assert err.value.position == 2
    with pytest.raises(ParseError) as err:
        parse("1 2")
    assert "trailing" in str(err.value)


@pytest.mark.parametrize("src", ["2²", "x²"])
def test_parse_refuses_a_digit_that_is_not_decimal(src):
    # '²' is a digit to str.isdigit and alphanumeric, but int() does not
    # read it and no identifier holds it
    with pytest.raises(ParseError, match="^unexpected character '²' \\(at position 1\\)$") as err:
        parse(src)
    assert err.value.position == 1


def test_parse_reads_every_decimal_digit():
    # Arabic-Indic digits are decimal, and int() reads them
    assert parse("١٢ + x٣") == BinOp("add", Const(12), Var("x٣"))


def test_fl_is_an_identity_marker():
    assert parse("fl(6 / 4)") == BinOp("floordiv", Const(6), Const(4))
    assert parse("fl(n)") == Var("n")
    assert ev("fl(7 / 2)") == 3


def test_parse_fixture_like_term():
    t = parse("fl(3^(n^2 + n) / (3^(2*n) -. (3^n + 1))) % 3^n")
    assert evaluate(t, {"n": 7}) == 13  # F(7)


def test_unknown_operator_node_rejected():
    with pytest.raises(ValueError):
        BinOp("sub", Const(1), Const(1))


# --- rendering --------------------------------------------------------------


def test_render_text_examples():
    t = parse("fl(3^(n^2 + n) / (3^(2*n) -. (3^n + 1))) % 3^n")
    assert render(t) == "fl(3^(n^2 + n) / (3^(2*n) -. (3^n + 1))) % 3^n"
    assert render(parse("2*(1 -. n) + 3")) == "2*(1 -. n) + 3"
    assert render(parse("(1 + 2)*3")) == "(1 + 2)*3"
    assert render(parse("2^(n + 1)")) == "2^(n + 1)"


def test_render_latex():
    t = parse("fl(2^n / 3) % 5")
    out = render(t, "latex")
    assert r"\left\lfloor" in out and r"\frac{2^{n}}{3}" in out and r"\bmod" in out
    assert render(parse("1 -. 2"), "latex") == r"1 \dotdiv 2"
    assert render(parse("2*n"), "latex") == r"2 \cdot n"


def test_render_latex_brackets_a_power_of_a_power():
    # 2^{3}^{4} is a double superscript, which LaTeX rejects
    assert render(parse("(2^3)^4"), "latex") == r"\left(2^{3}\right)^{4}"
    assert render(parse("2^3^4"), "latex") == "2^{3^{4}}"
    assert render(parse("(2^n)*3"), "latex") == r"2^{n} \cdot 3"


def test_render_latex_of_the_catalog_terms_is_pinned():
    # sha256 of the LaTeX of every fixture term, one per line, which no
    # power of a power reaches
    text = "\n".join(render(fix.term, "latex") for fix in fixtures())
    assert hashlib.sha256(text.encode()).hexdigest() == "fc60025993393af7c1b2e750342a69b515593b1aaa8082a974629c52c853af4a"


def test_render_unknown_format():
    # JSON text comes from dump_term_json(term_to_json(t)) alone
    for fmt in ("html", "json"):
        with pytest.raises(ValueError, match="unknown format"):
            render(Const(1), fmt)


def test_json_round_trip():
    t = parse("fl((2*9^(n^2 + 2*n) -. 2*9^(n^2 + n)) / (9^(2*n) -. (2*9^n + 1))) % 9^n")
    data = json.loads(dump_term_json(term_to_json(t)))
    assert term_from_json(data) == t
    assert term_to_json(Const(5)) == {"const": "5"}
    assert term_from_json({"var": "n"}) == Var("n")
    with pytest.raises(ValueError):
        term_from_json({"op": "add", "args": [{"const": "1"}]})
    with pytest.raises(ValueError):
        term_from_json({"what": 1})
    for bad in ({"const": [1]}, {"const": 1.5}, {"const": True}, {"var": 1}, {"op": "add", "args": 7}, [1]):
        with pytest.raises(ValueError):
            term_from_json(bad)


def random_term(rng, depth=0):
    """Random closed-ish term over small constants and the variable n."""
    if depth > 4 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Const(rng.randrange(0, 20))
        return Var(rng.choice(["n", "k", "x"]))
    op = rng.choice(["add", "truncsub", "mul", "floordiv", "mod", "pow"])
    left = random_term(rng, depth + 1)
    right = random_term(rng, depth + 1)
    return BinOp(op, left, right)


def test_render_parse_round_trip_seeded():
    rng = random.Random(1729)
    for _ in range(1000):
        t = random_term(rng)
        assert parse(render(t)) == t


@st.composite
def term_strategy(draw, depth=0):
    if depth > 3 or draw(st.booleans()):
        if draw(st.booleans()):
            return Const(draw(st.integers(min_value=0, max_value=99)))
        return Var(draw(st.sampled_from(["n", "m"])))
    op = draw(st.sampled_from(["add", "truncsub", "mul", "floordiv", "mod", "pow"]))
    return BinOp(op, draw(term_strategy(depth + 1)), draw(term_strategy(depth + 1)))


@given(term_strategy())
def test_render_parse_round_trip_property(t):
    assert parse(render(t)) == t


@given(term_strategy())
def test_round_trip_preserves_value(t):
    env = {"n": 3, "m": 2}
    try:
        expected = evaluate(t, env)
    except BudgetExceededError:
        return
    assert evaluate(parse(render(t)), env) == expected


def reference_value(t, n, budget):
    """(value, peak bits of the operator results) of t at n, straight from
    the module docstring's conventions, with evaluate's budget rule."""
    if isinstance(t, Const):
        return t.value, 0
    if isinstance(t, Var):
        return n, 0
    x, px = reference_value(t.left, n, budget)
    y, py = reference_value(t.right, n, budget)
    if t.op == "add":
        v = x + y
    elif t.op == "truncsub":
        v = max(x - y, 0)
    elif t.op == "mul":
        if x.bit_length() + y.bit_length() > budget:
            raise BudgetExceededError("product")
        v = x * y
    elif t.op == "floordiv":
        v = 0 if y == 0 else x // y
    elif t.op == "pow":
        if x > 1 and y * x.bit_length() > budget:
            raise BudgetExceededError("power")
        v = 1 if y == 0 else x**y
    else:
        v = x if y == 0 else x - y * (x // y)
    return v, max(px, py, v.bit_length())


@st.composite
def small_terms(draw, depth=6):
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        if draw(st.booleans()):
            return Const(draw(st.integers(0, 20)))
        return Var("n")
    op = draw(st.sampled_from(["add", "truncsub", "mul", "floordiv", "pow", "mod"]))
    return BinOp(op, draw(small_terms(depth - 1)), draw(small_terms(depth - 1)))


# small budgets, so that products and powers cross them often
@settings(max_examples=400)
@given(small_terms(), st.integers(0, 6), st.integers(4, 64))
def test_evaluate_matches_reference(t, n, budget):
    try:
        expected, peak = reference_value(t, n, budget)
    except BudgetExceededError:
        expected = None
    stats = EvalStats()
    with mock.patch.object(terms, "DEFAULT_BIT_BUDGET", budget):
        if expected is None:
            with pytest.raises(BudgetExceededError):
                evaluate(t, {"n": n}, stats=stats)
            return
        assert evaluate(t, {"n": n}, stats=stats) == expected
    assert stats.peak_bits == peak


# --- extraction term construction -------------------------------------------


FIB = ((0, 1), (1, -1, -1), 3)  # z / (1 - z - z^2) at base 3


def test_build_extraction_term_fibonacci_shape():
    t = build_extraction_term(*FIB)
    assert render(t) == "fl(3^(n^2 + n) / (3^(2*n) -. (3^n + 1))) % 3^n"
    for n, f in enumerate([0, 1, 1, 2, 3, 5, 8, 13]):
        assert evaluate(t, {"n": n}) == f


def test_build_extraction_term_without_minus_parts():
    # naturals: A = z, B = (1 - z)^2 = 1 - 2z + z^2
    t = build_extraction_term((0, 1), (1, -2, 1), 4)
    assert render(t) == "fl(4^(n^2 + n) / (4^(2*n) + 1 -. 2*4^n)) % 4^n"
    assert parse("fl(4^(n^2 + n) / ((4^(2*n) + 1) -. 2*4^n)) % 4^n") == t
    assert evaluate(t, {"n": 9}) == 9


def _nodes(t):
    """Every node object of t, by id."""
    seen, stack = {}, [t]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            if isinstance(node, BinOp):
                stack += [node.left, node.right]
    return seen


def _distinct_nodes(t):
    return len(_nodes(t))


def test_build_extraction_term_shares_equal_subterms():
    # n, n^2, the constant 7, each j*n and the modulus 7^n are built once:
    # 40 node objects where building every summand afresh took 61
    t = build_extraction_term((3, -1, 2, 1), (1, -2, 1, -3, 2), 7)
    assert _distinct_nodes(t) <= 40
    assert read_extraction(t) == ((3, -1, 2, 1, 0), (1, -2, 1, -3, 2), 7)
    assert render(t) == (
        "fl((3*7^(n^2 + 4*n) + 2*7^(n^2 + 2*n) + 7^(n^2 + n) -. 7^(n^2 + 3*n))"
        " / (7^(4*n) + 7^(2*n) + 2 -. (2*7^(3*n) + 3*7^n))) % 7^n"
    )


def test_built_terms_round_trip_on_the_benchmark_data(random_specs):
    # a term of shared nodes equals, and hashes as, the tree that parse and
    # term_from_json build from its text and JSON
    from arithterm.synthesis import synthesize

    for rec in random_specs(1, 100):
        t = synthesize(rec, horizon=30).term
        for back in (parse(render(t)), term_from_json(term_to_json(t))):
            assert back == t and hash(back) == hash(t)


@pytest.mark.parametrize(
    "node, field",
    [
        (Const(3), "value"),
        (Var("n"), "name"),
        (BinOp("add", Const(1), Var("n")), "op"),
        (BinOp("add", Const(1), Var("n")), "left"),
        (BinOp("add", Const(1), Var("n")), "right"),
    ],
)
def test_term_nodes_are_frozen(node, field):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(node, field, getattr(node, field))


@pytest.mark.parametrize(
    "make, text",
    [
        (lambda: Const(3), "Const(value=3)"),
        (lambda: Var("n"), "Var(name='n')"),
        (lambda: BinOp("add", Const(1), Var("n")), "BinOp(op='add', left=Const(value=1), right=Var(name='n'))"),
    ],
    ids=["Const", "Var", "BinOp"],
)
def test_term_nodes_keep_their_dataclass_behaviour(make, text):
    # __init__ sets the fields through the slot descriptors; eq, hash, repr,
    # match args and frozenness (test_term_nodes_are_frozen for assignment)
    # still come from the dataclass
    a, b = make(), make()
    fields = tuple(f.name for f in dataclasses.fields(a))
    assert a is not b and a == b and hash(a) == hash(b) and repr(a) == text
    assert type(a).__match_args__ == fields
    assert a != Const(4) and a != Var("m") and a != BinOp("mul", Const(1), Var("n"))
    for field in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(a, field)
    assert a == b


@given(term_strategy())
def test_rebuilt_nodes_equal_hash_and_print_as_the_originals(t):
    back = term_from_json(term_to_json(t))
    assert back == t and hash(back) == hash(t) and repr(back) == repr(t)
    match back:
        case BinOp(op, left, right):
            assert (op, left, right) == (t.op, t.left, t.right)
        case Const(value):
            assert value == t.value
        case Var(name):
            assert name == t.name


def test_build_extraction_term_validation():
    with pytest.raises(ValueError):
        build_extraction_term((0, 1), (1, -1, -1), 1)  # base too small
    with pytest.raises(ValueError):
        build_extraction_term((0, 1), (1, -1, -1, 0), 3)  # den not of degree len(den) - 1
    with pytest.raises(ValueError):
        build_extraction_term((0, 0, 1), (1, -1), 3)  # numerator too deep
    with pytest.raises(ValueError):
        build_extraction_term((-1,), (1, -1), 3)  # numerator without a positive part
    with pytest.raises(ValueError):
        build_extraction_term((), (1, -1), 3)  # empty numerator
    with pytest.raises(ValueError):
        build_extraction_term((1,), (-1, -1), 3)  # denominator without a positive part


@st.composite
def extraction_data(draw):
    """Valid build_extraction_term arguments (num, den, base), with
    coefficients of both signs; num[0] or den[0] is nonzero, so the term
    has a summand with the largest multiple h = len(den) - 1 of n."""
    h = draw(st.integers(1, 3))
    coeff = st.integers(-6, 6)
    den = draw(st.lists(coeff, min_size=h + 1, max_size=h + 1))
    num = draw(st.lists(coeff, min_size=h, max_size=h))
    assume(den[h] != 0 and (num[0] or den[0]) and max(num) > 0 and max(den) > 0)
    base = draw(st.integers(2, 50))
    return tuple(num), tuple(den), base


@given(extraction_data())
@example(((3, -1, 2, 1), (1, -2, 1, -3, 2), 7))
def test_parsed_and_json_terms_read_back_as_the_built_term(data):
    # the built term shares n and n^2 with every other built term, which
    # _summand matches by identity; parse and term_from_json build every
    # node afresh, so they take the == branch, with the same result
    built = build_extraction_term(*data)
    ids = _nodes(built).keys()
    for back in (parse(render(built)), term_from_json(term_to_json(built))):
        assert not ids & _nodes(back).keys()
        assert read_extraction(back) == read_extraction(built) == (data[0] + (0,), *data[1:])


@given(extraction_data(), st.integers(0, 25))
def test_extraction_value_matches_evaluate(data, n):
    num, den, base = data
    term = build_extraction_term(*data)
    assert extraction_value(*data, n) == evaluate(term, {"n": n})
    assert read_extraction(term) == (num + (0,) * (len(den) - len(num)), den, base)


@st.composite
def residue_data(draw):
    """(num, den, base) for extraction_value on either of its routes: h from
    1 to 6, den[0] in {0, 1, 2} (D(X) monic only at 1), den often with
    interior zeros, num with an X^h coefficient num[0], and coefficients of
    both signs, so that A <= 0 or D <= 0 also happens."""
    h = draw(st.integers(1, 6))
    coeff = st.integers(-300, 300)
    den = (draw(st.sampled_from((0, 1, 2))),) + tuple(draw(st.lists(st.just(0) | coeff, min_size=h, max_size=h)))
    num = tuple(draw(st.lists(coeff, min_size=h + 1, max_size=h + 1)))
    return num, den, draw(st.integers(2, 2**20))


@settings(max_examples=300, deadline=None)
@given(residue_data(), st.integers(0, 400))
@example(((3, -5, 6, 0), (1, -5, 9, -9), 32), 300)  # A088137's data at 1500 bits of x: the ring
@example(((3, -5, 6, 0), (1, -5, 9, -9), 32), 150)  # 750 bits of x: the ring as well
@example(((0, 1, 0), (1, -1, -1), 3), 63)  # 3^63 counts 126 bits: pow
@example(((0, 1, 0), (1, -1, -1), 3), 64)  # 3^64 counts 128 bits: the ring
# |den[1]| >= base: pow; the ring's S(x) would have 6,000 bits, past the budget
@example(((1, 0), (1, -1000), 3), 600)
@example(((4, 0, -2, 1), (1, 0, 0, -3), 2**20), 400)  # den with interior zeros: the ring
@example(((1, 0, 2), (2, 0, -7), 2**20), 400)  # D(X) not monic: pow
# the ring past the sign threshold: A = x^2 - 100x > 0, A = 100x - x^2 < 0,
# and A = x - 50 from num's second coefficient (k = 1)
@example(((1, -100, 0), (1, -1, -1), 3), 64)
@example(((-1, 100, 0), (1, -1, -1), 3), 64)
@example(((0, 1, -50), (1, -1, -1), 3), 64)
def test_extraction_value_matches_the_pow_formula_on_both_routes(data, n):
    num, den, base = data
    x = base**n
    a, d = extraction_fraction(num, den, x)
    zero = n == 0 or a <= 0 or d <= 0
    expected = 0 if zero else x * (a * pow(x, n - 1, d) % d) // d
    stats = EvalStats()
    assert extraction_value(num, den, base, n, stats=stats) == expected
    if zero:
        assert stats.peak_bits == 0
        return
    # the budget checked before either route covers every number it formed
    need = max(a.bit_length(), x.bit_length()) + d.bit_length()
    assert stats.peak_bits <= need
    with mock.patch.object(terms, "DEFAULT_BIT_BUDGET", max(need, n * base.bit_length())):
        assert extraction_value(num, den, base, n) == expected
    with mock.patch.object(terms, "DEFAULT_BIT_BUDGET", need - 1):
        with pytest.raises(BudgetExceededError):
            extraction_value(num, den, base, n)


@st.composite
def range_data(draw):
    """(num, den, base, ns, blow) for extraction_values: h from 1 to 6,
    den[0] in {0, 1, 2}, den with interior zeros and coefficients whose
    size reaches past the base, num with interior zeros or empty, and a
    range from 0..400 of 0..40 indices; blow asks for a bit budget that
    the range's middle index crosses."""
    h = draw(st.integers(1, 6))
    base = draw(st.integers(2, 40))
    coeff = st.just(0) | st.integers(-base - 3, base + 3)
    den = (draw(st.sampled_from((0, 1, 2))),) + tuple(draw(st.lists(coeff, min_size=h, max_size=h)))
    num = tuple(draw(st.lists(coeff, max_size=h + 1)))
    lo = draw(st.integers(0, 400))
    return num, den, base, range(lo, lo + draw(st.integers(0, 40))), draw(st.booleans())


def _run(values):
    """The values an iterator gives up to its first BudgetExceededError,
    and that error's message or None."""
    out = []
    try:
        for value in values:
            out.append(value)
    except BudgetExceededError as exc:
        return out, str(exc)
    return out, None


@settings(max_examples=200, deadline=None)
@given(range_data())
@example(((3, -5, 6, 0), (1, -5, 9, -9), 32, range(150, 160), False))  # A088137 at 750-795 bits of x
@example(((3, -5, 6, 0), (1, -5, 9, -9), 32, range(1, 41), True))
@example(((0, 1, 0), (1, -1, -1), 3, range(0, 64), False))  # 3^63 counts 126 bits: pow at every index
@example(((0, 1, 0), (1, -1, -1), 3, range(0, 65), False))  # 3^64 counts 128 bits: the range steps
@example(((1, 0, 2), (1, 0, -7), 5, range(0, 30), False))  # |den[2]| >= base: pow
@example(((), (1, -1, -1), 3, range(0, 5), False))
# the ring forms A = x^2 - 100x while x <= 100, where A <= 0, and reads its
# sign off num[0] from n = 5 on; likewise for 100x - x^2, which is 0 from
# there, and for x - 50, whose first nonzero coefficient is num[1]
@example(((1, -100, 0), (1, -1, -1), 3, range(1, 70), False))
@example(((-1, 100, 0), (1, -1, -1), 3, range(1, 70), False))
@example(((0, 1, -50), (1, -1, -1), 3, range(1, 70), False))
def test_extraction_values_are_the_values_index_by_index(data):
    # the kernel steps X^(n-1) N mod D(X) along the range; index by index,
    # each value takes its own route, and budget errors come at the same
    # index with the same text, in verify_term's report too
    num, den, base, ns, blow = data
    budget = terms.DEFAULT_BIT_BUDGET
    if blow and ns:
        mid = ns[len(ns) // 2]
        x = base**mid
        a, d = extraction_fraction(num, den, x)
        need = max(a.bit_length(), x.bit_length()) + d.bit_length()
        budget = max(mid * base.bit_length(), need) - 1
    with mock.patch.object(terms, "DEFAULT_BIT_BUDGET", budget):
        got = _run(extraction_values(num, den, base, ns))

        def one_by_one():
            for n in ns:
                yield extraction_value(num, den, base, n)

        want = _run(one_by_one())
        assert got == want
        if not ns or not (den[-1] and max(den) > 0 and max(num, default=0) > 0 and not any(num[len(den) - 1 :])):
            return
        term = build_extraction_term(num, den, base)
        values, message = want
        oracle = [0] * ns.start + values + [0] * (len(ns) - len(values))
        report = verify_term(oracle, term, 0, ns.start, ns[-1])
    assert report.first_failure is None
    assert report.checked == len(values)
    assert report.aborted == (None if message is None else f"n={ns.start + len(values)}: {message}")


def _counting_num_evaluations(num):
    """A mock.patch of terms._poly_at that counts its calls on num."""
    calls = []

    def poly_at(coeffs, h, x):
        if tuple(coeffs) == num:
            calls.append(x)
        return real(coeffs, h, x)

    real = terms._poly_at
    return mock.patch.object(terms, "_poly_at", poly_at), calls


def test_extraction_values_reads_the_sign_of_n_without_forming_it():
    # A088137's data at 750-795 bits of x: A = 3x^3 - 5x^2 + 6x has num[0]'s
    # sign, and its bit bound fits the budget, so N(x) is never formed
    num, den, base = (3, -5, 6, 0), (1, -5, 9, -9), 32
    ns = range(150, 160)
    patch, calls = _counting_num_evaluations(num)
    with patch:
        got = list(extraction_values(num, den, base, ns))
    assert calls == []
    assert got == [extraction_value(num, den, base, n) for n in ns]
    for n, value in zip(ns, got):
        x = base**n
        a, d = extraction_fraction(num, den, x)
        assert value == x * (a * pow(x, n - 1, d) % d) // d


def test_extraction_value_decides_a_loose_bit_bound_exactly():
    # A088137 at n = 150: the bit bound of max(bits(A), bits(x)) + bits(D)
    # is past a budget that the exact need fits, so N(x) is formed once and
    # the exact check decides, as on the pow route
    num, den, base, n = (3, -5, 6, 0), (1, -5, 9, -9), 32, 150
    h, per_n = len(den) - 1, base.bit_length()
    x = base**n
    a, d = extraction_fraction(num, den, x)
    need = max(a.bit_length(), x.bit_length()) + d.bit_length()
    bound = max(sum(map(abs, num)).bit_length() + h * n * per_n, n * per_n) + h * n * per_n + 1
    assert n * per_n <= need < bound
    expected = x * (a * pow(x, n - 1, d) % d) // d
    patch, calls = _counting_num_evaluations(num)
    with patch, mock.patch.object(terms, "DEFAULT_BIT_BUDGET", need):
        assert extraction_value(num, den, base, n) == expected
    assert calls == [x]
    with mock.patch.object(terms, "DEFAULT_BIT_BUDGET", need - 1):
        with pytest.raises(BudgetExceededError, match=f"product needs about {need} bits"):
            extraction_value(num, den, base, n)


def test_extraction_value_stats_and_budget(monkeypatch):
    stats = EvalStats()
    assert extraction_value(*FIB, 50, stats=stats) == 12586269025
    # the term itself builds 3^2550; the fast path stays near 3 * 3^50
    assert 0 < stats.peak_bits < 400
    with pytest.raises(BudgetExceededError):
        extraction_value(*FIB, 10**8)
    monkeypatch.setattr(terms, "DEFAULT_BIT_BUDGET", 20000)
    with pytest.raises(BudgetExceededError, match="product"):
        extraction_value(*FIB, 5000)
    with pytest.raises(ValueError):
        extraction_value(*FIB[:2], 1, 5)
    with pytest.raises(ValueError):
        extraction_value((0, 1, 0, 0), (1, -1, -1), 3, 5)


def test_extraction_fraction_rejects_num_longer_than_den():
    # _poly_at would raise x to a negative power and return a float
    with pytest.raises(ValueError, match="num must not be longer than den"):
        extraction_fraction((1, 2, 3), (1, 1), 3)
    for n in (0, 5):
        with pytest.raises(ValueError, match="num must not be longer than den"):
            extraction_value((1, 2, 3), (1, 1), 3, n)
    assert extraction_fraction((1, 2), (1, 1), 3) == (5, 4)


@pytest.mark.parametrize(
    "data, larger",
    [
        # h = 1 and A = 1 < x = 3^n: x times the residue mod D is the larger
        # product (build_extraction_term would reject this constant numerator
        # summand, yet extraction_value's identity holds for any A)
        (((0, 1), (1, -1), 3), "x"),
        # A = x^2 > x: A times the residue mod D is the larger product
        (((1,), (1, -1, -1), 3), "A"),
    ],
)
def test_extraction_value_budget_covers_both_products(monkeypatch, data, larger):
    base, n = data[2], 40
    x = base**n
    num, den = extraction_fraction(*data[:2], x)
    need = {"A": num.bit_length() + den.bit_length(), "x": x.bit_length() + den.bit_length()}
    assert need[larger] == max(need.values()) > min(need.values())
    expected = base ** (n * n) * num // den % x
    products = (num * (x ** (n - 1) % den), x * (num * x ** (n - 1) % den))

    monkeypatch.setattr(terms, "DEFAULT_BIT_BUDGET", need[larger])
    stats = EvalStats()
    assert extraction_value(*data, n, stats=stats) == expected
    assert stats.peak_bits == max(p.bit_length() for p in products)
    zero = EvalStats()
    assert extraction_value(*data, 0, stats=zero) == 0
    assert zero.peak_bits == 0

    monkeypatch.setattr(terms, "DEFAULT_BIT_BUDGET", need[larger] - 1)
    with pytest.raises(BudgetExceededError, match="product"):
        extraction_value(*data, n)


def test_read_extraction_rejects_other_shapes():
    term = build_extraction_term(*FIB)
    assert read_extraction(term) == ((0, 1, 0), (1, -1, -1), 3)
    assert read_extraction(BinOp("add", term, Const(0))) is None
    assert read_extraction(parse("fl(3^(n^2 + n) / (3^(2*n) -. (3^n + 1))) % 3^m")) is None
    assert read_extraction(parse("fl(3^(n^2 + n) / 3^(2*n)) % 3^(2*n)")) is None
    # a valid shape, but its dense coefficient tuples would have 10,000 entries
    assert read_extraction(parse("fl(2^(n^2 + 9999*n) / (2^(9999*n) + 1)) % 2^n")) is None
    assert read_extraction(parse("2^2^2^n")) is None


def test_read_extraction_caps_h_before_building_tuples():
    # 36 characters whose dense tuples would hold 10^9 + 1 entries a side
    started = time.perf_counter()
    assert read_extraction(parse("fl(2^(n^2) / 2^(1000000000*n)) % 2^n")) is None
    assert time.perf_counter() - started < 1


def test_read_extraction_reads_every_node():
    fib = ((0, 1, 0), (1, -1, -1), 3)
    # order, repeats and factors 1 or 0 are read leniently, and the value
    # stays extraction_value of what is read
    for src in (
        "fl(3^(n^2 + n) / (3^(2*n) -. (3^n + 1))) % 3^n",
        "fl(1*3^(n^2 + 1*n) / (3^(2*n) -. (1 + 3^n + 0*3^(2*n)))) % 3^n",
    ):
        term = parse(src)
        assert read_extraction(term) == fib
        for n in range(12):
            assert extraction_value(*fib, n) == evaluate(term, {"n": n})
    assert read_extraction(parse("fl(3^(n^2 + n) / (3^n + 3^n + 3^(2*n))) % 3^n")) == ((0, 1, 0), (1, 2, 0), 3)
    # every other node must be the one build_extraction_term writes
    for src in (
        "fl(3^(n^2 + n) / (2^(2*n) -. (3^n + 1))) % 3^n",  # a summand in another base
        "fl(3^(n^2 + n) + 1 / (3^(2*n) -. (3^n + 1))) % 3^n",  # a constant numerator summand
        "fl(3^(n^3 + n) / (3^(2*n) -. (3^n + 1))) % 3^n",
        "fl(3^(n^2 + n*2) / (3^(2*n) -. (3^n + 1))) % 3^n",
        "fl(3^(n^2 + n) / (3^(2*m) -. (3^n + 1))) % 3^n",
        "fl(3^(n^2 + n) / (3^(2*n) -. (3^n -. 1))) % 3^n",
        "fl(n^(n^2 + n) / (n^(2*n) -. (n^n + 1))) % n^n",
        "fl(1^(n^2 + n) / (1^(2*n) -. (1^n + 1))) % 1^n",
    ):
        assert read_extraction(parse(src)) is None, src


def test_read_extraction_walks_a_deep_sum_in_a_loop():
    # 3,000 numerator summands nest past the default recursion limit
    h = 3000
    den = (1,) + (0,) * (h - 1) + (-1,)
    assert read_extraction(build_extraction_term((1,) * h, den, 2)) == ((1,) * h + (0,), den, 2)
