#!/usr/bin/env python3
"""arithterm benchmark: one workload run, checked, printed as JSON.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py for each one's reason): catalog_cli,
random_batch, far_replay.  The workload runs in a child process
(worker.py) under a wall-clock limit of S + 90 s; inputs the child has not
finished when the limit hits, or when it dies, count as failed.  With
``--trace 0`` the set-up is also timed in extra children, and the
end-to-end metrics are printed; with ``--trace 1`` every public function of
the library is wrapped and the per-layer metrics are printed.  Per-layer
figures are per pass over the inputs, except catalog.fixtures.self_s, which
adds the set-up where the catalog is built.

Times are reported at a reference machine speed.  On a shared host the
same code runs up to 1.5x slower from one minute to the next, far more
than the changes the bounds are meant to catch.  So the worker times a
fixed calibration slice (worker.calibration_slice) between inputs, at
least every 0.1 s, and each input's time is divided by its slowdown: the
median of the four slices nearest to it, over REF_CAL_S.  wall_s is the
sum of these scaled per-input times over a pass; set-up times and traced
self times are scaled by their process's median slice.

The last stdout line is {"correct", "attempted", "failed", "metrics"}.  The
exit code is 0 only when every input passed its checks; a checkout without
arithterm sources under src/ exits 2 without printing a result.
"""

from __future__ import annotations

import argparse
import bisect
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from tracer import ROOT as ROOT_SPAN

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("catalog_cli", "random_batch", "far_replay")
SETUP_SAMPLES = 7  # set-ups timed per untraced run; setup_s is their median
LIMIT_SLACK_S = 90  # the child may run this long past --seconds before it is killed
REF_CAL_S = 0.0025  # worker.calibration_slice at an unloaded moment of a 2.0 GHz Xeon

# per-layer metric -> span names whose self time it sums
SELF_TIMES = {
    "synthesis.find_b1_m.self_s": ("synthesis.find_b1_m",),
    "synthesis.validate.self_s": ("synthesis.BoundsCertificate.validate",),
    "synthesis.search.self_s": ("synthesis.synthesize",),
    "synthesis.find_shift.self_s": ("synthesis.find_shift",),
    "synthesis.radius_lower_bound.self_s": ("synthesis.radius_lower_bound",),
    "recurrence.eval_oracle.self_s": ("recurrence.eval_oracle",),
    "recurrence.growth_constant.self_s": ("recurrence.growth_constant",),
    "recurrence.is_provably_nonnegative.self_s": ("recurrence.is_provably_nonnegative",),
    "polys.self_s": (
        "recurrence.generating_function",
        "recurrence.gf_shift",
        "polys.clear_denominators",
        "polys.split_signs",
        "polys.poly_gcd",
        "polys.series_coefficients",
    ),
    "terms.evaluate.self_s": ("terms.evaluate",),
    "terms.build_extraction_term.self_s": ("terms.build_extraction_term",),
    "terms.render.self_s": ("terms.render",),
    "verify.verify_term.self_s": ("verify.verify_term",),
    "cli.main.self_s": ("cli.main",),
    "catalog.fixtures.self_s": ("catalog.fixtures",),
}
CALLS = {
    "recurrence.eval_oracle.calls": "recurrence.eval_oracle",
    "terms.evaluate.calls": "terms.evaluate",
}
WORK = {
    "recurrence.eval_oracle.values": "recurrence.eval_oracle",
    "verify.points": "verify.verify_term",
}


def _worker(args, *extra: str) -> list[str]:
    return [
        sys.executable, str(HERE / "worker.py"),
        args.workload, str(args.seed), str(args.seconds), str(args.trace), *extra,
    ]


def _lines(text: str | bytes | None) -> list[dict]:
    if isinstance(text, bytes):
        text = text.decode("utf-8", "replace")
    out = []
    for line in (text or "").splitlines():
        try:
            out.append(json.loads(line))
        except json.JSONDecodeError:
            break  # a line cut short by the kill
    return out


def _setup_time(args) -> float:
    """Set-up time of one fresh process."""
    proc = subprocess.run(_worker(args, "--setup-only"), cwd=ROOT, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
    events = _lines(proc.stdout)
    return events[0]["setup_s"] / slowdown(events)


def slowdown(events: list[dict]) -> float:
    """Median calibration slice of a process over the reference."""
    return statistics.median(e["s"] for e in events if e["kind"] == "cal") / REF_CAL_S


def local_slowdowns(events: list[dict]) -> dict[tuple[int, int], float]:
    """(pass, index) -> median of the four calibration slices nearest the input."""
    cal = [i for i, e in enumerate(events) if e["kind"] == "cal"]
    out = {}
    for i, e in enumerate(events):
        if e["kind"] == "input":
            k = bisect.bisect(cal, i)
            near = cal[max(0, k - 2) : k + 2]
            out[e["pass"], e["index"]] = statistics.median(events[j]["s"] for j in near) / REF_CAL_S
    return out


def _tail(values: list[float]) -> float:
    """95th percentile when ten or more values lie beyond it, else the largest.

    With fewer than 200 inputs the 95th percentile interpolates between the
    two or three slowest inputs and swings with short bursts of machine
    load; the slowest input is the steadier figure.
    """
    if len(values) < 200:
        return max(values)
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def _per_input(events: list[dict], inputs: int) -> tuple[dict[int, list[dict]], set[int]]:
    """Records per input index, and the indices that failed or never finished."""
    passes = [e["pass"] for e in events if e["kind"] == "pass"]
    records: dict[int, list[dict]] = {}
    failed = set()
    for e in events:
        if e["kind"] == "input":
            if e["ok"]:
                records.setdefault(e["index"], []).append(e)
            else:
                failed.add(e["index"])
                print(f"input {e['index']} failed in pass {e['pass']}: {e['error']}", file=sys.stderr)
    started = {e["pass"] for e in events if e["kind"] == "input"}
    cut = started - set(passes)
    if cut or not passes:  # the run was killed or died inside a pass
        done = {e["index"] for e in events if e["kind"] == "input" and e["pass"] in cut}
        failed |= set(range(inputs)) - done
    return records, failed


def end_to_end(events: list[dict], records: dict[int, list[dict]], setups: list[float], rss_mb: float) -> dict:
    slow = local_slowdowns(events)
    ms = [statistics.median(r["ms"] / slow[r["pass"], r["index"]] for r in recs) for recs in records.values()]
    passes = {e["pass"] for e in events if e["kind"] == "pass"}
    walls = {p: 0.0 for p in passes}
    for e in events:
        if e["kind"] == "input" and e["pass"] in passes:
            walls[e["pass"]] += e["total_s"] / slow[e["pass"], e["index"]]
    first = [recs[0] for recs in records.values()]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls.values()), "s"),
        "call_p50_ms": (statistics.median(ms), "ms"),
        "call_p95_ms": (_tail(ms), "ms"),
        "base_p50": (statistics.median(r["b"] for r in first), "base"),
        "replay_peak_bits": (max(r["peak_bits"] for r in first), "bits"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(events: list[dict], records: dict[int, list[dict]], walls: list[float], trace: dict) -> dict:
    passes, setup, timed = trace["passes"], trace["setup"], trace["timed"]
    slow = slowdown(events)
    walls = [wall / slow for wall in walls]

    def per_pass(names, slot: int) -> float:
        scale = slow * 1e9 if slot == 0 else 1  # ns -> s at reference speed
        return sum(timed.get(name, [0, 0, 0])[slot] for name in names) / passes / scale

    out = {name: (per_pass(spans, 0), "s") for name, spans in SELF_TIMES.items()}
    mapped = {span for spans in SELF_TIMES.values() for span in spans} | {ROOT_SPAN}
    out["other.self_s"] = (per_pass(set(timed) - mapped, 0), "s")
    # the catalog is built once, during set-up
    fixtures = out["catalog.fixtures.self_s"][0] + setup.get("catalog.fixtures", [0])[0] / (slow * 1e9)
    out["catalog.fixtures.self_s"] = (fixtures, "s")
    out.update({name: (per_pass([span], 1), "count") for name, span in CALLS.items()})
    out.update({name: (per_pass([span], 2), "count") for name, span in WORK.items()})
    out["harness.self_s"] = (sum(walls) / passes - per_pass([ROOT_SPAN], 0), "s")
    out["trace.wall_s"] = (statistics.median(walls), "s")

    synth = [recs[0] for recs in records.values() if recs[0]["probes"] is not None]
    probes = sum(r["probes"] for r in synth)
    out["synthesis.probes"] = (probes, "count")
    out["synthesis.probes_per_result"] = (probes / len(synth) if synth else 0, "probes/result")
    out["synthesis.bisect_fallbacks"] = (sum(r["scan_bisect"] for r in synth), "count")
    out["synthesis.cert_m_max"] = (max((r["m"] for r in synth), default=0), "index")
    out["synthesis.catalog_match"] = (sum(bool(r["match"]) for r in synth), "count")
    out["synthesis.certified_share"] = (sum(r["certified"] for r in synth) / len(synth) if synth else 0, "share")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "arithterm" / "__init__.py").is_file():
        print(f"run.py: no arithterm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        setups = [] if args.trace else [_setup_time(args) for _ in range(SETUP_SAMPLES - 1)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    limit = args.seconds + LIMIT_SLACK_S
    try:
        proc = subprocess.run(_worker(args), cwd=ROOT, capture_output=True, text=True, timeout=limit)
        events, stderr = _lines(proc.stdout), proc.stderr
    except subprocess.TimeoutExpired as exc:
        events, stderr = _lines(exc.stdout), f"killed after the {limit} s limit"
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    if not events or events[0]["kind"] != "setup":
        print(f"run.py: the workload did not set up: {stderr}", file=sys.stderr)
        return 1
    inputs = events[0]["inputs"]
    records, failed = _per_input(events, inputs)
    if failed and stderr:
        print(stderr, file=sys.stderr)
    walls = [e["wall_s"] for e in events if e["kind"] == "pass"]
    if not records or not walls:
        print(f"run.py: no pass over the inputs finished; {len(failed)} of {inputs} inputs failed", file=sys.stderr)
        return 1
    print(
        f"run.py: {len(walls)} passes, median pass {statistics.median(walls):.4f} s as measured, "
        f"median slowdown {slowdown(events):.4f}",
        file=sys.stderr,
    )
    if args.trace:
        trace = next((e for e in events if e["kind"] == "trace"), None)
        if trace is None:
            print(f"run.py: the traced run ended without its trace: {stderr}", file=sys.stderr)
            return 1
        metrics = per_layer(events, records, walls, trace)
    else:
        setups.append(events[0]["setup_s"] / slowdown(events))
        metrics = end_to_end(events, records, setups, rss_mb)
    print(json.dumps({
        "correct": not failed,
        "attempted": inputs,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    raise SystemExit(main())
