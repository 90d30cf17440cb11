#!/usr/bin/env python3
"""Replay every catalog fixture and print a verification table.

Usage: python3 scripts/replay_catalog.py [--horizon N]
"""

import argparse

from arithterm.catalog import get_fixture
from arithterm.verify import verify_catalog


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--horizon", type=int, default=40)
    args = parser.parse_args()

    header = f"{'id':12} {'b':>5} {'c':>2} {'range':>10} {'status':8} {'peak_bits':>10} {'ms':>8}"
    print(header)
    print("-" * len(header))
    results = verify_catalog(args.horizon)
    bad = 0
    for fid, report in results:
        fix = get_fixture(fid)
        if report.ok:
            status = "ok"
        elif report.aborted is not None:
            status, bad = "aborted", bad + 1
        else:
            status, bad = f"FAIL n={report.first_failure.n}", bad + 1
        span = f"[{report.n_lo}, {report.n_hi}]"
        ms = report.elapsed_ns // 1_000_000
        print(f"{fix.id:12} {fix.base:>5} {fix.shift:>2} {span:>10} {status:8} {report.peak_bits:>10} {ms:>8}")
    print("-" * len(header))
    print(f"{len(results) - bad}/{len(results)} fixtures verified")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
