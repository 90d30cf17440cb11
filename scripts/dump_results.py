#!/usr/bin/env python3
"""Print one JSON line per synthesis input, for checking that two versions
of the library give identical results.

The inputs are the catalog fixtures, synthesized at the CLI's horizon, then
--count specs from the benchmark's random_batch generator
(perfbench.workloads.random_specs) at --seed, synthesized at its horizon.
Each line holds the input's id and spec and either the result (b, c,
certified_from, the rendered term, valid_at_zero, the certificate and the
report without its probe count) or the error the input raises.

Usage: python3 scripts/dump_results.py [--count N] [--seed S] > results.jsonl

Run it once per version (PYTHONPATH=<checkout>/src) and diff the outputs.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from arithterm.catalog import fixtures  # noqa: E402
from arithterm.synthesis import synthesize  # noqa: E402
from arithterm.terms import render  # noqa: E402
from perfbench.workloads import CATALOG_HORIZON, RANDOM_HORIZON, random_specs  # noqa: E402


def dump(rec, horizon: int) -> dict:
    try:
        r = synthesize(rec, horizon=horizon)
        return {
            "b": r.b,
            "c": r.c,
            "certified_from": r.certified_from,
            "term": render(r.term),
            "valid_at_zero": r.valid_at_zero,
            "certificate": r.certificate.to_json_dict(),
            "report": {k: v for k, v in r.report.items() if k != "probes"},
        }
    except (ArithmeticError, RuntimeError, ValueError) as exc:  # the error text is part of the result
        return {"error": f"{type(exc).__name__}: {exc}"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=0, help="random specs after the fixtures")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    inputs = [(fix.id, fix.recurrence, CATALOG_HORIZON) for fix in fixtures()]
    inputs += [
        (f"random:{args.seed}:{i}", rec, RANDOM_HORIZON) for i, rec in enumerate(random_specs(args.seed, args.count))
    ]
    for name, rec, horizon in inputs:
        line = {"id": name, "spec": rec.to_json_dict(), "horizon": horizon, **dump(rec, horizon)}
        print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
