"""The benchmark's workloads: inputs made from a seed, one call per input.

Every workload is closed-loop on one thread: the next input starts only
after the previous one has been run and its output checked.  ``run``
returns one record per input and raises ``CheckFailed`` when the program's
output is wrong; the check is part of the timed work, the ``ms`` field of a
record times only the call under test.

Calls go through module attributes (``synthesis.synthesize``, never a name
imported into this file), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass
from typing import Callable

import arithterm.cli as cli
from arithterm import catalog, recurrence, synthesis, terms, verify

ACCEPTANCE_SEED = 20260814  # random_batch's first 200 specs are acceptance criterion 5's
HELD_OUT_SEED = 20261017  # for checking a claimed gain on inputs it was not tuned on

CATALOG_HORIZON = 40
RANDOM_HORIZON = 30
RANDOM_BATCH_SIZE = 1000
FAR_POINTS = (
    ("A000045", (200, 800, 2000)),
    ("A088137", (200, 800, 2000)),
    ("A001081", (200, 800)),  # its n=2000 point alone takes about 25 s
)


class CheckFailed(AssertionError):
    """The program returned a wrong or unusable output for one input."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: Callable[[int], list]  # seed -> inputs, built during set-up
    run: Callable[[object], dict]  # one input -> record


def _replay(rec, term, c: int, n_lo: int, n_hi: int):
    """Compare term(n) - c^(n+1) with eval_oracle on [n_lo, n_hi]."""
    oracle = recurrence.eval_oracle(rec, n_hi + 1).values
    report = verify.verify_term(oracle, term, c, n_lo, n_hi)
    if report.aborted is not None:
        raise CheckFailed(f"replay aborted: {report.aborted}")
    if report.first_failure is not None:
        raise CheckFailed(f"replay mismatch at n={report.first_failure.n}")
    return report


def _record(ms: float, b: int, peak_bits: int, cert_m=None, report=None, match=None) -> dict:
    return {
        "ms": ms,
        "b": b,
        "peak_bits": peak_bits,
        "m": cert_m,
        "probes": None if report is None else report["probes"],
        "scan_bisect": None if report is None else report["strategy"] == "scan+bisect",
        "certified": None if report is None else report["evidence"] == "certified",
        "match": match,
    }


def _shuffled(items: list, seed: int) -> list:
    random.Random(seed).shuffle(items)
    return items


# --- catalog_cli ------------------------------------------------------------


def _catalog_inputs(seed: int) -> list:
    return _shuffled(list(catalog.fixtures()), seed)


def _run_catalog_cli(fix) -> dict:
    spec = json.dumps(fix.recurrence.to_json_dict())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        code = cli.main(["synth", spec, "--format", "json"])
        ms = (time.perf_counter() - started) * 1e3
    if code != 0:
        raise CheckFailed(f"{fix.id}: synth exited {code}: {err.getvalue().strip()}")
    data = json.loads(out.getvalue())
    term = terms.parse(data["term"])
    if term != terms.term_from_json(data["term_json"]):
        raise CheckFailed(f"{fix.id}: printed term does not parse back to term_json")
    b, c = data["b"], data["c"]
    replay = _replay(fix.recurrence, term, c, 1, CATALOG_HORIZON)
    return _record(ms, b, replay.peak_bits, data["certificate"]["m"], data["report"], (b, c) == (fix.base, fix.shift))


# --- random_batch -----------------------------------------------------------


def random_specs(seed: int, count: int) -> list:
    """Acceptance criterion 5's generator: order 1-4, coeffs in +-5, init in +-10."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        order = rng.randint(1, 4)
        coeffs = [rng.randint(-5, 5) for _ in range(order)]
        if coeffs[-1] == 0:
            continue
        init = [rng.randint(-10, 10) for _ in range(order)]
        rec = recurrence.Recurrence(order, tuple(coeffs), tuple(init))
        window = recurrence.eval_oracle(rec, max(order, 10) + 1).values
        if all(v == 0 for v in window):
            continue
        out.append(rec)
    return out


def _run_random(rec) -> dict:
    started = time.perf_counter()
    res = synthesis.synthesize(rec, horizon=RANDOM_HORIZON)
    ms = (time.perf_counter() - started) * 1e3
    replay = _replay(rec, res.term, res.c, 1, RANDOM_HORIZON)
    return _record(ms, res.b, replay.peak_bits, res.certificate.m, res.report)


# --- far_replay -------------------------------------------------------------


def _far_inputs(seed: int) -> list:
    points = [(catalog.get_fixture(fid), n) for fid, ns in FAR_POINTS for n in ns]
    return _shuffled(points, seed)


def _run_far(point) -> dict:
    fix, n = point
    started = time.perf_counter()
    oracle = recurrence.eval_oracle(fix.recurrence, n + 1).values
    report = verify.verify_term(oracle, fix.term, fix.shift, n, n)
    ms = (time.perf_counter() - started) * 1e3
    if not report.ok:
        raise CheckFailed(f"{fix.id} at n={n}: {report.first_failure or report.aborted}")
    return _record(ms, fix.base, report.peak_bits)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "catalog_cli",
            "what a CLI user runs: all 23 fixtures through `synth --format json`; bound data "
            "(find_b1_m on FibConv4) dominates, and it is the only workload that crosses cli",
            _catalog_inputs,
            _run_catalog_cli,
        ),
        Workload(
            "random_batch",
            "many short syntheses whose time spreads over oracle, shift search, bound data and "
            "base search, plus thousands of small-n evaluate calls",
            lambda seed: random_specs(seed, RANDOM_BATCH_SIZE),
            _run_random,
        ),
        Workload(
            "far_replay",
            "no synthesis, a few evaluate calls on integers of millions of bits: the terms layer "
            "with huge inputs, where random_batch gives it small ones",
            _far_inputs,
            _run_far,
        ),
    )
}
