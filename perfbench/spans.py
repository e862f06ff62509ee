"""Spans around the calls into each layer of ``omq``, recorded from outside.

The benchmark opens a span around every public call it makes (parse,
build, rewrite, emit, answer).  Calls one layer makes into another are
caught by swapping the module attribute the caller looks the callee up
through: ``omq.engine.ground``, ``omq.engine.gl_reduct``,
``omq.engine.stratify`` and ``omq.query.normalize``.  A span's self time
is its duration minus the time of the spans opened inside it.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None          # index of the span that caused this one
    start: float
    end: float = 0.0
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, parent, time.perf_counter())
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_time += s.duration

    def wrap(self, module, attr: str, name: str, count_out=None) -> None:
        """Replace ``module.attr`` by a function that records a span named
        ``name`` around each call, and adds ``count_out(result)`` to the
        count ``name + '.out'`` when given."""
        inner = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                result = inner(*args, **kwargs)
            if count_out is not None:
                self.counts[name + ".out"] += count_out(result)
            return result

        self._patched.append((module, attr, inner))
        setattr(module, attr, traced)

    def unwrap_all(self) -> None:
        while self._patched:
            module, attr, inner = self._patched.pop()
            setattr(module, attr, inner)

    def reset(self) -> None:
        assert not self._stack, "reset inside an open span"
        self.spans.clear()
        self.counts.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total seconds and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            t = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["s"] += s.duration
            t["self_s"] += s.self_time
        return out


def install(tracer: Tracer, omq) -> None:
    """Wrap the cross-layer attributes named in the module docstring."""
    tracer.wrap(omq.engine, "ground", "ground", lambda p: len(p.rules))
    tracer.wrap(omq.engine, "gl_reduct", "reduct")
    tracer.wrap(omq.engine, "stratify", "stratify")
    tracer.wrap(omq.query, "normalize", "normalize")
