"""In-memory spans recorded around calls into the program's layers.

The benchmark never edits the program: it wraps public functions and
methods from outside (:meth:`Tracer.wrap`) and records one span per
call, with its name, start, end, parent span and a unit count (leaves
built, leaf-ticks simulated).  Spans stay in memory until the run ends;
:func:`self_times` then gives each layer's self time, its span time
minus the part its child spans cover.

:class:`TickClock` is the one hook that is on in untraced runs too: it
notes when the first engine tick starts and the last one ends, which
``setup_s`` and ``leaf_ticks_per_s`` need, at two clock reads per tick.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

clock = time.monotonic

#: One recorded call: (name, start, end, parent index or -1, units).
Span = Tuple[str, float, float, int, float]


class Tracer:
    """Records spans; nesting follows the call stack of one thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        #: Boundaries :meth:`wrap` could not find (renamed or removed in
        #: the program); their metrics read zero and the report names them.
        self.missing: List[str] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, clock(), 0.0, parent, 0.0))
        self._stack.append(index)
        return index

    def _close(self, index: int, units: float) -> None:
        self._stack.pop()
        name, start, _, parent, _ = self.spans[index]
        self.spans[index] = (name, start, clock(), parent, units)

    def span(self, name: str) -> "_SpanContext":
        """Context manager recording one span around a block."""
        return _SpanContext(self, name)

    def wrap(self, owner, attr: str, name: str,
             units: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a version that records a span.

        ``owner`` is a module or a class.  For a module function, every
        already-imported module of the program that bound the same
        function by ``from ... import`` is patched too, so calls through
        either name are seen.  ``units(args, result)`` gives the span's
        unit count.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer._open(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                tracer._close(index, units(args, result) if units else 0.0)

        if isinstance(owner, type):
            setattr(owner, attr, traced)
            return
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, attr, None) is original):
                setattr(module, attr, traced)


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name, self.index = tracer, name, -1

    def __enter__(self) -> None:
        self.index = self.tracer._open(self.name)

    def __exit__(self, *exc) -> None:
        self.tracer._close(self.index, 0.0)


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Per-name sum of self time: span duration minus direct children's.

    Spans of one thread nest, so a span's direct children never overlap
    and the sum of their durations is the part of it they cover.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Dict[str, float] = {}
    for (name, start, end, _, _), covered in zip(spans, child_time):
        out[name] = out.get(name, 0.0) + (end - start - covered)
    return out


def totals(spans: List[Span], name: str) -> Tuple[int, float, float]:
    """(calls, total seconds, total units) of the spans named ``name``."""
    calls, seconds, units = 0, 0.0, 0.0
    for span_name, start, end, _, span_units in spans:
        if span_name == name:
            calls += 1
            seconds += end - start
            units += span_units
    return calls, seconds, units


class TickClock:
    """First tick start, last tick end and leaf-ticks of engine ticks."""

    def __init__(self) -> None:
        self.first_start: Optional[float] = None
        self.last_end: Optional[float] = None
        self.leaf_ticks = 0

    def install(self, cls) -> None:
        """Hook ``cls.tick``; ``self.n`` members per tick (else one)."""
        original = cls.tick
        ticks = self

        @functools.wraps(original)
        def tick(sim, *args, **kwargs):
            start = clock()
            if ticks.first_start is None:
                ticks.first_start = start
            result = original(sim, *args, **kwargs)
            ticks.last_end = clock()
            ticks.leaf_ticks += getattr(sim, "n", 1)
            return result

        cls.tick = tick
