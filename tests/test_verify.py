import random

import pytest

from arithterm.catalog import fixtures, get_fixture
from arithterm import verify
from arithterm.polys import AlgebraError
from arithterm.recurrence import Recurrence, eval_oracle, generating_function
from arithterm.synthesis import synthesize
from arithterm.terms import (
    _MAX_MATCHED_H,
    BinOp,
    Const,
    EvalStats,
    build_extraction_term,
    evaluate,
    extraction_fraction,
    extraction_value,
    parse,
    read_extraction,
)
from arithterm.verify import Failure, extraction_direct, verify_catalog, verify_term

FIB = get_fixture("A000045").recurrence


def test_verify_term_ok():
    oracle = eval_oracle(FIB, 41).values
    fix = get_fixture("A000045")
    report = verify_term(oracle, fix.term, fix.shift, 0, 40)
    assert report.ok
    assert report.checked == 41
    assert report.first_failure is None
    assert report.aborted is None
    assert report.elapsed_ns > 0
    assert report.peak_bits > 0


def test_verify_term_reports_first_mismatch():
    # the Pell term agrees with Fibonacci at n = 0, 1 and diverges at n = 2
    oracle = eval_oracle(FIB, 11).values
    report = verify_term(oracle, get_fixture("A000129").term, 0, 0, 10)
    assert not report.ok
    assert report.checked == 3
    assert report.first_failure.n == 2
    assert report.first_failure.expected == 1
    assert report.first_failure.got == 2


def test_verify_term_range_validation():
    oracle = eval_oracle(FIB, 11).values
    term = get_fixture("A000045").term
    with pytest.raises(ValueError):
        verify_term(oracle, term, 0, -1, 5)
    with pytest.raises(ValueError):
        verify_term(oracle, term, 0, 5, 4)
    with pytest.raises(ValueError, match="oracle covers"):
        verify_term(oracle, term, 0, 0, 11)
    with pytest.raises(ValueError, match="shift must be a natural number"):
        verify_term(oracle, term, -1, 0, 10)


def test_verify_term_aborts_on_budget():
    # triple tower: the exponent guard trips at n = 5 long before memory does
    term = parse("2^2^2^n")
    oracle = [2 ** (2 ** (2**n)) for n in range(5)] + [0] * 6
    report = verify_term(oracle, term, 0, 0, 10)
    assert not report.ok
    assert report.checked == 5
    assert report.first_failure is None
    assert report.aborted is not None and report.aborted.startswith("n=5")


def test_verify_term_aborts_on_a_term_too_deep_to_walk():
    # a left-deep sum, and an extraction term whose h is past the cap of
    # the fast path, so evaluate walks it
    h = _MAX_MATCHED_H + 1
    for term in (parse("+".join(["1"] * 3000)), build_extraction_term((1,) * h, (2,) + (1,) * h, 3)):
        report = verify_term([0] * 3, term, 0, 0, 2)
        assert not report.ok
        assert report.checked == 0
        assert report.aborted == "n=0: term nests too deeply"


def test_verify_term_reads_a_deep_extraction_term_without_rebuilding_it():
    # 1500 summands a side: comparing this term with its rebuild would
    # recurse past the interpreter's limit, but read_extraction reads it in
    # a loop, so the replay runs through extraction_value and reaches n = 1
    h = 1500
    data = ((1,) * h, (2,) + (1,) * h, 3)
    report = verify_term([0] * 3, build_extraction_term(*data), 0, 0, 2)
    assert report.aborted is None and report.checked == 2
    assert report.first_failure == Failure(n=1, expected=0, got=extraction_value(*data, 1))


def test_fast_path_and_evaluate_agree_on_reports():
    # the +0 wrapper hides the extraction shape, so it replays through evaluate
    oracle = eval_oracle(FIB, 41).values
    for fid, c, lo in (("A000045", 0, 0), ("A000129", 0, 0), ("A001045", 0, 3)):
        term = get_fixture(fid).term
        assert read_extraction(term) is not None
        fast = verify_term(oracle, term, c, lo, 40)
        slow = verify_term(oracle, BinOp("add", term, Const(0)), c, lo, 40)
        assert (fast.checked, fast.first_failure) == (slow.checked, slow.first_failure)
    pell = verify_term(oracle, get_fixture("A000129").term, 0, 0, 10)
    assert (pell.checked, pell.first_failure.n) == (3, 2)


def test_report_json_shape():
    oracle = eval_oracle(FIB, 11).values
    report = verify_term(oracle, get_fixture("A000129").term, 0, 0, 10)
    blob = report.to_json_dict()
    assert blob["range"] == [0, 10]
    assert blob["ok"] is False
    assert blob["first_failure"] == {"n": 2, "expected": 1, "got": 2}
    assert isinstance(blob["peak_bits"], int)
    assert blob["aborted"] is None


def test_verify_catalog_all_ok():
    results = verify_catalog(horizon=20)
    assert len(results) == 23
    for fid, report in results:
        assert report.ok, fid


def test_extraction_direct_matches_fibonacci():
    gf = generating_function(FIB)
    fib = eval_oracle(FIB, 8).values
    for n in range(1, 8):
        assert extraction_direct(gf, 3, n) == fib[n]


def test_extraction_direct_validation():
    gf = generating_function(FIB)
    with pytest.raises(ValueError):
        extraction_direct(gf, 3, 0)
    with pytest.raises(ValueError):
        extraction_direct(gf, 1, 2)


def test_extraction_direct_at_a_pole_raises():
    # 1 / (1 - 2z) has its pole at z = 1/2 = 2^(-1)
    gf = generating_function(Recurrence(1, (-2,), (1,)))
    with pytest.raises(AlgebraError, match="^evaluation at a pole$"):
        extraction_direct(gf, 2, 1)
    assert extraction_direct(gf, 10, 2) == 4  # s(2), away from the pole


NOT_EXTRACTION_SHAPED = {"A000032", "A001080", "A001629", "FibConv2", "FibConv3", "FibConv4", "A103469"}


def test_read_extraction_rebuilds_the_catalog():
    # every fixture term read_extraction reads is exactly the term
    # build_extraction_term writes from what it reads
    for fix in fixtures():
        params = read_extraction(fix.term)
        assert (params is None) == (fix.id in NOT_EXTRACTION_SHAPED), fix.id
        if params is not None:
            assert build_extraction_term(*params) == fix.term, fix.id


def test_extraction_value_matches_evaluate_on_the_catalog():
    # so verify_term's fast path replays every fixture it reads exactly
    for fid in MATCHED:
        fix = get_fixture(fid)
        params = read_extraction(fix.term)
        assert params[2] == fix.base
        for n in range(61):
            assert extraction_value(*params, n) == evaluate(fix.term, {"n": n}), (fid, n)


def test_verify_term_replays_the_order_520_result_without_evaluate(monkeypatch):
    # s(n) = s(n - 520): comparing the term synthesize returns with its
    # rebuild can recurse past the interpreter's limit; read_extraction
    # reads it in a loop
    order = 520
    rec = Recurrence(order, (0,) * (order - 1) + (-1,), tuple(range(1, order + 1)))
    r = synthesize(rec, horizon=3)
    monkeypatch.setattr(verify, "evaluate", lambda *args, **kwargs: pytest.fail("replayed through evaluate"))
    report = verify_term(eval_oracle(rec, 41).values, r.term, r.c, 1, 40)
    assert report.ok and report.checked == 40
    # evaluate would build b^(n^2 + 520n) at n = 40
    assert report.peak_bits < (r.b ** (40**2 + order * 40)).bit_length()


@pytest.mark.parametrize("fid", ["A000045", "A088137", "A001081"])
def test_extraction_value_far_points(fid):
    term = get_fixture(fid).term
    params = read_extraction(term)
    for n in (200, 400):
        assert extraction_value(*params, n) == evaluate(term, {"n": n})


MATCHED = sorted({fix.id for fix in fixtures()} - NOT_EXTRACTION_SHAPED)


@pytest.mark.parametrize(
    "fid, n", [(fid, 2000) for fid in MATCHED] + [(fid, 10**4) for fid in ("A000045", "A088137", "A001081")]
)
def test_extraction_value_matches_the_oracle_far_out(fid, n):
    # evaluate cannot reach these n: the built term forms base^(n^2)
    fix = get_fixture(fid)
    value = extraction_value(*read_extraction(fix.term), n)
    assert value - fix.shift ** (n + 1) == eval_oracle(fix.recurrence, n + 1).values[n]


@pytest.mark.parametrize(
    "fid, n_lo, n",
    [
        pytest.param("A000045", 2000, 2000, id="A000045-2000"),
        pytest.param("A088137", 2000, 2000, id="A088137-2000"),
        pytest.param("A088137", 100, 100, id="A088137-100"),
        pytest.param("A001081", 800, 800, id="A001081-800"),
        pytest.param("A000045", 1, 600, id="A000045-1-600"),
        pytest.param("A088137", 1, 600, id="A088137-1-600"),
    ],
)
def test_far_point_peak_is_x_times_a_residue(fid, n_lo, n):
    # D(X) is monic: a point or a range [1, n] whose last x has 128 bits
    # or more takes its residue from Z[X] mod D(X) (x = 32^100 has 500),
    # and steps it from n = 1 on, so neither forms A = N(x) times a
    # residue mod D(x)
    fix = get_fixture(fid)
    num, den, base = read_extraction(fix.term)
    x = base**n
    d = extraction_fraction(num, den, x)[1]
    report = verify_term(eval_oracle(fix.recurrence, n + 1).values, fix.term, fix.shift, n_lo, n)
    assert report.ok
    assert report.peak_bits <= x.bit_length() + d.bit_length() + 1


def _random_batch_specs(seed, count):
    # the benchmark's random_batch generator: order 1-4, coeffs in +-5,
    # init in +-10, no sequence that is zero on its first values
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        order = rng.randint(1, 4)
        coeffs = [rng.randint(-5, 5) for _ in range(order)]
        if coeffs[-1] == 0:
            continue
        init = [rng.randint(-10, 10) for _ in range(order)]
        rec = Recurrence(order, tuple(coeffs), tuple(init))
        if any(eval_oracle(rec, max(order, 10) + 1).values):
            out.append(rec)
    return out


def test_stepped_replay_peak_is_at_most_the_index_by_index_peak():
    # random_batch's own check replays [1, 30]; where b^30 counts 128 bits
    # or more, stepping the residue keeps y = S(x) a few bits past D(x),
    # where pow at each index forms y = A times a residue mod D(x); a
    # smaller range takes pow at every index (Fibonacci's base 3, for one)
    peaks = []
    for rec in [FIB, *_random_batch_specs(1, 50)]:
        r = synthesize(rec, horizon=30)
        report = verify_term(eval_oracle(rec, 31).values, r.term, r.c, 1, 30)
        assert report.ok
        num, den, base = read_extraction(r.term)
        pow_peak = 0
        for n in range(1, 31):
            x = base**n
            a, d = extraction_fraction(num, den, x)
            if a > 0 and d > 0:
                y = a * pow(x, n - 1, d)
                pow_peak = max(pow_peak, y.bit_length(), (x * (y % d)).bit_length())
        if 30 * base.bit_length() < 128:
            assert report.peak_bits == pow_peak, rec
        else:
            assert report.peak_bits <= pow_peak, rec
        peaks.append((report.peak_bits, pow_peak))
    assert max(new for new, _ in peaks) < max(old for _, old in peaks)


def test_synthesized_fibconv4_term_replays_far_out():
    # h = 11: x = 351^1000 has 8,456 bits and D(x) about 93,000
    fix = get_fixture("FibConv4")
    r = synthesize(fix.recurrence)
    assert (r.b, r.c, len(read_extraction(r.term)[1]) - 1) == (351, 7, 11)
    n = 1000
    report = verify_term(eval_oracle(fix.recurrence, n + 1).values, r.term, r.c, n, n)
    assert report.ok and report.checked == 1
