"""Spans and counters taken around calls into pmpstab's modules.

Everything here lives in the benchmark: spans wrap the calls the benchmark
makes, the module-level names one pmpstab module uses to call another
(installed with `patched` for the length of a traced run), and a probe
around the feedback law the benchmark passes to the closed loop.  With
tracing off, `Tracer.span` is a no-op and nothing is patched.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None      # index of the enclosing span; ops are roots
    start: float
    end: float = 0.0
    law_s: float = 0.0      # time inside feedback-law calls during the span
    law_calls: int = 0
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


@dataclass
class Tracer:
    enabled: bool
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    law_s: float = 0.0
    law_calls: int = 0
    _stack: list[int] = field(default_factory=list)

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + n

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        rec = Span(name, parent, 0.0)
        self.spans.append(rec)
        self._stack.append(idx)
        law_s0, calls0 = self.law_s, self.law_calls
        rec.start = time.perf_counter()
        try:
            yield
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()
            rec.law_s = self.law_s - law_s0
            rec.law_calls = self.law_calls - calls0
            if parent is not None:
                self.spans[parent].children_s += rec.duration

    def wrap(self, name: str, fn, after=None):
        """fn, recorded as a span `name` on every call; `after` is handed
        each result, outside the span."""
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(out)
            return out
        return traced

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def summary(self) -> list[str]:
        """One line per span name: count, total and self time."""
        names = sorted({s.name for s in self.spans})
        lines = []
        for name in names:
            spans = self.named(name)
            total = sum(s.duration for s in spans)
            own = sum(s.self_s for s in spans)
            law = sum(s.law_s for s in spans)
            lines.append(f"span {name}: count={len(spans)} total_s={total:.4f} "
                         f"self_s={own:.4f} law_s={law:.4f}")
        return lines


@contextlib.contextmanager
def patched(tracer: Tracer, targets):
    """Record spans around module-level names while tracing is on.

    `targets` holds (module, attribute, span name, after) tuples, with
    `after` as in `Tracer.wrap`.  The original attributes are restored on
    exit.
    """
    if not tracer.enabled:
        yield
        return
    saved = []
    try:
        for module, attr, name, after in targets:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr,
                    tracer.wrap(name, getattr(module, attr), after))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class LawProbe:
    """Feedback law stand-in that times and counts every law call.

    Attribute reads other than the law's evaluation methods go straight to
    the wrapped law, so the closed loop sees the same system, manifold,
    inner dynamics and finite-difference scale.
    """

    def __init__(self, law, tracer: Tracer):
        self._law = law
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._law, name)

    def _timed(self, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._tracer.law_s += time.perf_counter() - t0
            self._tracer.law_calls += 1

    def boundary_value(self, x):
        return self._timed(self._law.boundary_value, x)

    def region(self, x):
        return self._timed(self._law.region, x)

    def switching_value(self, x, *rest):
        return self._timed(self._law.switching_value, x, *rest)

    def control(self, x):
        return self._timed(self._law.control, x)

    def side_control(self, x, side):
        return self._timed(self._law.side_control, x, side)
