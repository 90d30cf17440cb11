"""One workload run in its own process; started by run.py.

Usage: python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE [--setup-only]

Set-up (import arithterm, build the fixtures, make the inputs) is timed
first.  Then the worker runs passes over all inputs while the next pass is
expected to end within SECONDS; there is always at least one pass.  Each
stdout line is one JSON object, flushed at once, so a parent that kills a
slow run still holds every record written before:

    {"kind": "setup", "setup_s": ..., "inputs": N}
    {"kind": "cal", "s": ...}   (at most every CAL_INTERVAL_S, between inputs)
    {"kind": "input", "pass": p, "index": i, "ok": true, "total_s": ..., ...record}
    {"kind": "pass", "pass": p, "wall_s": ...}
    {"kind": "trace", "passes": P, "setup": {...}, "timed": {...}}   (TRACE 1)
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path

from tracer import Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
CAL_INTERVAL_S = 0.1  # least time between two calibration slices
SETUP_CALIBRATIONS = 5
_CAL_BASE = 3**63291  # a 100k-bit integer


def calibration_slice() -> float:
    """Time one fixed piece of work that does not depend on arithterm.

    run.py scales each input's time by the slices timed next to it, so that
    times from a host whose speed drifts compare at one reference speed.
    """
    start = time.perf_counter()
    _CAL_BASE * _CAL_BASE
    return time.perf_counter() - start


def emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _add(total: dict, spans: list, work: dict) -> None:
    for name, (ns, calls) in summarize(spans).items():
        entry = total.setdefault(name, [0, 0, 0])
        entry[0] += ns
        entry[1] += calls
    for name, amount in work.items():
        total.setdefault(name, [0, 0, 0])[2] += amount


def run_passes(run, inputs: list, seconds: float, tracer: Tracer | None, sink) -> None:
    """Passes over ``inputs`` while the next one should end within ``seconds``.

    Every event goes to ``sink``; with a tracer, spans recorded so far count
    as set-up and each pass's spans are summarized and dropped as it ends.
    """
    setup_layers: dict = {}
    timed_layers: dict = {}
    if tracer:
        _add(setup_layers, *tracer.drain())
    run_start = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        calibrating, last_cal = 0.0, float("-inf")
        for index, item in enumerate(inputs):
            if time.perf_counter() - last_cal >= CAL_INTERVAL_S:
                cal_s = calibration_slice()
                sink({"kind": "cal", "s": cal_s})
                calibrating += cal_s
                last_cal = time.perf_counter()
            started = time.perf_counter()
            try:
                record = {"ok": True, **run(item)}
            except Exception as exc:  # one failed input must not end the run
                record = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            record["total_s"] = time.perf_counter() - started
            sink({"kind": "input", "pass": passes, "index": index, **record})
        cal_s = calibration_slice()
        sink({"kind": "cal", "s": cal_s})
        wall = time.perf_counter() - pass_start - calibrating - cal_s
        sink({"kind": "pass", "pass": passes, "wall_s": wall})
        passes += 1
        if tracer:
            _add(timed_layers, *tracer.drain())
        if time.perf_counter() - run_start + wall > seconds:
            break
    if tracer:
        sink({"kind": "trace", "passes": passes, "setup": setup_layers, "timed": timed_layers})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one benchmark workload")
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("seconds", type=float)
    parser.add_argument("trace", type=int, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import arithterm

    if not Path(arithterm.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"worker: arithterm imported from {arithterm.__file__}, not this checkout", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    with tracer or contextlib.nullcontext():
        inputs = workload.inputs(args.seed)
        emit({"kind": "setup", "setup_s": time.perf_counter() - started, "inputs": len(inputs)})
        if args.setup_only:
            for _ in range(SETUP_CALIBRATIONS):
                emit({"kind": "cal", "s": calibration_slice()})
            return 0
        run_passes(workload.run, inputs, args.seconds, tracer, emit)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
