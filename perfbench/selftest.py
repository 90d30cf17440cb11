#!/usr/bin/env python3
"""Self-test of the benchmark harness on tiny inputs (points n <= 50).

Usage (from the root of a checkout): python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is produced, that the
self-time metrics add up to the traced wall time, that self times are
non-negative and never exceed their span, that the tracer puts every
wrapped name back, that a run cut short counts its unfinished inputs as
failed, and that the acceptance seed gives acceptance criterion 5's specs.
"""

from __future__ import annotations

import importlib.util
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import arithterm  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from worker import run_passes  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_FIXTURES = ("A000045", "A000032", "A000129")


def tiny_inputs(name: str) -> list:
    if name == "catalog_cli":
        return [arithterm.catalog.get_fixture(fid) for fid in TINY_FIXTURES]
    if name == "random_batch":
        return workloads.random_specs(workloads.HELD_OUT_SEED, 4)
    return [(arithterm.catalog.get_fixture(fid), n) for fid in ("A000045", "A088137") for n in (20, 50)]


def events_for(name: str, tracer: Tracer | None) -> list[dict]:
    events: list[dict] = []
    inputs = tiny_inputs(name)
    events.append({"kind": "setup", "setup_s": 0.01, "inputs": len(inputs)})
    run_passes(workloads.WORKLOADS[name].run, inputs, 0, tracer, events.append)
    return events


class HarnessTest(unittest.TestCase):
    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(run.WORKLOAD_NAMES))
        self.assertEqual(set(run.WORKLOAD_NAMES), set(workloads.WORKLOADS))

    def test_every_metric_is_present(self):
        e2e = {m["name"] for m in BENCHMARK["end_to_end"]}
        layers = {m["name"] for m in BENCHMARK["per_layer"]}
        for name in run.WORKLOAD_NAMES:
            with self.subTest(workload=name):
                events = events_for(name, None)
                records, failed = run._per_input(events, events[0]["inputs"])
                self.assertEqual(failed, set())
                self.assertEqual(set(run.end_to_end(events, records, [0.01], 20.0)), e2e)
                with Tracer() as tracer:
                    events = events_for(name, tracer)
                records, failed = run._per_input(events, events[0]["inputs"])
                self.assertEqual(failed, set())
                walls = [e["wall_s"] for e in events if e["kind"] == "pass"]
                trace = next(e for e in events if e["kind"] == "trace")
                metrics = run.per_layer(events, records, walls, trace)
                self.assertEqual(set(metrics), layers)
                self.assertGreaterEqual(metrics["harness.self_s"][0], 0)
                # every traced second lands in exactly one self-time metric
                accounted = sum(value for key, (value, _) in metrics.items() if key.endswith(".self_s"))
                wall = sum(walls) / len(walls) / run.slowdown(events)
                self.assertAlmostEqual(accounted, wall, delta=0.01 * wall)

    def test_self_time_within_span(self):
        with Tracer() as tracer:
            for name in run.WORKLOAD_NAMES:
                for item in tiny_inputs(name)[:2]:
                    workloads.WORKLOADS[name].run(item)
            spans, _ = tracer.drain()
        self.assertGreater(len(spans), 0)
        for (name, start, end, _), own in zip(spans, self_times(spans)):
            self.assertGreaterEqual(own, 0, name)
            self.assertLessEqual(own, end - start, name)

    def test_wrapped_names_are_restored(self):
        before = {
            (mod, attr): obj
            for mod, module in sys.modules.items()
            if mod == "arithterm" or mod.startswith("arithterm.")
            for attr, obj in vars(module).items()
        }
        oracle = arithterm.recurrence.eval_oracle
        synthesize = arithterm.synthesis.synthesize
        validate = arithterm.synthesis.BoundsCertificate.validate
        with Tracer():
            self.assertIs(arithterm.synthesis.eval_oracle.__wrapped__, oracle)
            self.assertIs(arithterm.cli.synthesize.__wrapped__, synthesize)
            events_for("random_batch", None)
        self.assertIs(arithterm.synthesis.eval_oracle, arithterm.recurrence.eval_oracle)
        self.assertIs(arithterm.cli.synthesize, synthesize)
        self.assertIs(arithterm.synthesis.BoundsCertificate.validate, validate)
        for (mod, attr), obj in before.items():
            self.assertIs(vars(sys.modules[mod])[attr], obj, f"{mod}.{attr}")

    def test_cut_run_counts_unfinished_inputs_as_failed(self):
        events = [
            {"kind": "setup", "setup_s": 0.01, "inputs": 3},
            {"kind": "input", "pass": 0, "index": 0, "ok": True, "ms": 1.0},
        ]
        _, failed = run._per_input(events, 3)
        self.assertEqual(failed, {1, 2})

    def test_acceptance_seed_gives_the_acceptance_specs(self):
        spec = importlib.util.spec_from_file_location("acceptance", ROOT / "tests" / "test_acceptance.py")
        acceptance = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(acceptance)
        ours = workloads.random_specs(workloads.ACCEPTANCE_SEED, 200)
        self.assertEqual(tuple(ours), acceptance._random_recurrences())


if __name__ == "__main__":
    unittest.main()
