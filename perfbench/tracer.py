"""Span recording from outside the program, and the per-layer reduction.

A :class:`Tracer` wraps functions so that every call records one span
``(name, start, end, parent, run_id)`` in memory.  Nothing is derived while
the program runs: :func:`reduce_spans` turns the recorded spans into per-layer
call counts, self times and inclusive durations after the run.  A layer's self
time is its spans' durations minus the durations of their direct children, so
the self times of all spans partition the time covered by the outermost ones.

The open spans form a stack; the wrapper closes its span in ``finally``, so a
call that raises still records a span and its parent's accounting stays right.
A call into a layer that is already the innermost open span (a subclass
override calling ``super()``, a view delegating to its store) records no
second span, so calls are counted once per entry into the layer.
"""

from __future__ import annotations

import contextlib
import functools
import marshal
import os
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: One recorded span: name, start, end, index of the parent span (-1 for a
#: root), and the id of the run it belongs to.
Span = Tuple[str, float, float, int, Any]
#: Span name under which the tracer times its own probes (e.g. pickling a
#: result to measure its size).  Probe time belongs to no layer.
PROBE = "trace.probe"


class Tracer:
    """Records spans of wrapped calls; one instance per traced process."""

    def __init__(self, run_id: Any = 0, clock: Callable[[], float] = time.perf_counter) -> None:
        self.run_id = run_id
        self.clock = clock
        self.enabled = True
        self.spans: List[Optional[Span]] = []
        #: Open spans, innermost last: (name, start, index).
        self._stack: List[Tuple[str, float, int]] = []
        self.counters: Dict[str, float] = {}

    def _open(self, name: str) -> Tuple[str, float, int]:
        index = len(self.spans)
        self.spans.append(None)
        frame = (name, self.clock(), index)
        self._stack.append(frame)
        return frame

    def _close(self, frame: Tuple[str, float, int]) -> None:
        end = self.clock()
        stack = self._stack
        stack.pop()
        name, start, index = frame
        parent = stack[-1][2] if stack else -1
        self.spans[index] = (name, start, end, parent, self.run_id)

    def wrap(
        self,
        name: str,
        function: Callable,
        after: Optional[Callable[["Tracer", tuple, Any], None]] = None,
    ) -> Callable:
        """``function`` recording a span named ``name`` per call.

        ``after(tracer, args, result)`` runs once the span has closed, for
        probes that read the call's arguments or result; its time is recorded
        as a :data:`PROBE` span so it is charged to no layer.
        """
        stack = self._stack

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not self.enabled or (stack and stack[-1][0] == name):
                return function(*args, **kwargs)
            frame = self._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(frame)
            if after is not None:
                with self.span(PROBE):
                    after(self, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span named ``name`` around the ``with`` body."""
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def dump(self, path: str) -> None:
        """Write the recorded spans and counters to ``path``, then forget them.

        Call only with no span open.  The file is :mod:`marshal` data, read
        back with :func:`load` by the same interpreter version.
        """
        with open(path, "wb") as handle:
            marshal.dump({"spans": self.spans, "counters": self.counters}, handle)
        self.spans.clear()
        self.counters.clear()

    def restart_in_child(self) -> None:
        """Forget the parent's spans in a forked child; record the child's own."""
        self.spans.clear()
        self._stack.clear()
        self.counters.clear()
        self.run_id = os.getpid()


def load(path: str) -> Tuple[List[Span], Dict[str, float]]:
    """The spans and counters a :meth:`Tracer.dump` wrote."""
    with open(path, "rb") as handle:
        document = marshal.load(handle)
    return document["spans"], document["counters"]


class LayerTimes:
    """Per span name: calls, self time and the inclusive durations."""

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.durations: List[float] = []


def reduce_spans(spans: List[Span]) -> Dict[str, LayerTimes]:
    """Per-name calls, self times and inclusive durations of ``spans``.

    ``spans`` is in start order with parents given by index, as a
    :class:`Tracer` records them.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _run in spans:
        if parent >= 0:
            child_time[parent] += end - start
    layers: Dict[str, LayerTimes] = {}
    for index, (name, start, end, _parent, _run) in enumerate(spans):
        layer = layers.get(name)
        if layer is None:
            layer = layers[name] = LayerTimes()
        duration = end - start
        layer.calls += 1
        layer.self_s += duration - child_time[index]
        layer.durations.append(duration)
    return layers
