"""Span tracing of arithterm from outside the library.

``Tracer`` replaces every public function of the traced modules, plus
``BoundsCertificate.validate``, with a wrapper that records one span per
call: name, start, end and the index of the enclosing span.  Modules bind
names at import (``synthesis`` holds its own ``eval_oracle`` and
``evaluate``, ``cli`` its own ``synthesize``), so each function is replaced
under every name, in every ``arithterm`` module namespace, that refers to
it.  Leaving the ``with`` block puts every original back.

A span's self time is its duration minus the durations of its direct
children.  Calls nest on one thread, so children never overlap and self
time is never negative.
"""

from __future__ import annotations

import functools
import sys
import time
from types import ModuleType
from typing import Callable

TRACED_MODULES = ("recurrence", "polys", "synthesis", "terms", "verify", "catalog", "cli")

# name -> how much work one call did, read off its result
WORK_COUNTERS: dict[str, Callable[[object], int]] = {
    "recurrence.eval_oracle": len,  # terms generated
    "verify.verify_term": lambda report: report.checked,  # points replayed
}


def _public_functions(module: ModuleType) -> dict[str, Callable]:
    out = {}
    for attr, obj in vars(module).items():
        if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            out[attr] = obj
    return out


class Tracer:
    """Records spans for calls into arithterm while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int] | None] = []
        self.work: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, work, clock = self.spans, self._stack, self.work, time.perf_counter_ns
        counter = WORK_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counter is not None:
                work[name] = work.get(name, 0) + counter(result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        import arithterm

        wrappers: dict[int, Callable] = {}
        originals: dict[int, Callable] = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"arithterm.{short}"]
            for attr, fn in _public_functions(module).items():
                originals[id(fn)] = fn
                wrappers[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        namespaces = [m for n, m in sys.modules.items() if n == "arithterm" or n.startswith("arithterm.")]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and originals[id(obj)] is obj:
                    self._patch(module, attr, wrappers[id(obj)])
        cert = arithterm.synthesis.BoundsCertificate
        self._patch(cert, "validate", self._wrap("synthesis.BoundsCertificate.validate", cert.validate))
        return self

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc_info) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def drain(self) -> tuple[list[tuple[str, int, int, int]], dict[str, int]]:
        """Hand over the finished spans and work counts, and start afresh."""
        if self._stack:
            raise RuntimeError("drain called inside a traced call")
        spans, work = list(self.spans), dict(self.work)
        self.spans.clear()
        self.work.clear()
        return spans, work


def self_times(spans: list[tuple[str, int, int, int]]) -> list[int]:
    """Self time of each span in ns: its duration minus its children's."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


ROOT = "root"  # summary key for time inside top-level spans


def summarize(spans: list[tuple[str, int, int, int]]) -> dict[str, list[int]]:
    """Per span name: [self ns, calls]; ROOT sums the top-level spans."""
    out: dict[str, list[int]] = {ROOT: [0, 0]}
    for (name, start, end, parent), own in zip(spans, self_times(spans)):
        entry = out.setdefault(name, [0, 0])
        entry[0] += own
        entry[1] += 1
        if parent < 0:
            out[ROOT][0] += end - start
            out[ROOT][1] += 1
    return out
