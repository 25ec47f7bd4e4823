"""In-memory span tracing and the benchmark's own arithmetic.

A ``Tracer`` replaces public functions of the program's modules with
wrappers that record one span per call: name, op id, span id, parent span
id, start and end (``perf_counter_ns``) and an optional note computed from
the call's arguments and result.  Nesting is tracked per thread.  A span
opened on a worker thread with nothing open on that thread takes the
innermost span open on the main thread as its parent, because live-mode
branches run on pool workers while the main thread waits inside the
decision step that spawned them.

Spans stay in memory; ``dump`` writes them out once the run has ended.
Nothing under ``src/`` is edited: ``install``/``uninstall`` swap module and
class attributes at run time.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import threading
from time import perf_counter_ns

NAME, OP, SPAN, PARENT, START, END, NOTE = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op = 0
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._patches: list[tuple] = []
        self._op_start = 0

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        if stack is not self._main_stack:
            try:
                return self._main_stack[-1]
            except IndexError:
                return 0
        return 0

    def begin_op(self) -> None:
        """Open the root span of one op on the main thread."""
        self.op = next(self._ids)
        self._main_stack.append(self.op)
        self._op_start = perf_counter_ns()

    def end_op(self) -> None:
        end = perf_counter_ns()
        self._main_stack.pop()
        self.spans.append(("op", self.op, self.op, 0, self._op_start, end, None))

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``note(args, result)``, if given, is stored with the span.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            span_id = next(tracer._ids)
            op = tracer.op
            stack.append(span_id)
            start = perf_counter_ns()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                extra = note(args, result) if note is not None and result is not None else None
                tracer.spans.append((name, op, span_id, parent, start, end, extra))

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")


def union_ns(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def self_times(spans: list[tuple]) -> dict[int, int]:
    """Span id -> self time: duration minus the part its children cover.

    Children may overlap each other (branches on worker threads), so the
    covered part is the union of their intervals, not the sum.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        children.setdefault(span[PARENT], []).append((span[START], span[END]))
    return {
        span[SPAN]: (span[END] - span[START])
        - union_ns(children.get(span[SPAN], []), span[START], span[END])
        for span in spans
    }


def layer_totals(spans: list[tuple]) -> dict[str, dict]:
    """Per span name: calls, total self ns and total inclusive ns."""
    own = self_times(spans)
    totals: dict[str, dict] = {}
    for span in spans:
        row = totals.setdefault(span[NAME], {"calls": 0, "self_ns": 0, "incl_ns": 0})
        row["calls"] += 1
        row["self_ns"] += own[span[SPAN]]
        row["incl_ns"] += span[END] - span[START]
    return totals


def percentile(sorted_samples: list, q: float):
    """Nearest-rank ``q``-quantile (0 < q < 1) of an ascending list."""
    if not sorted_samples:
        raise ValueError("no samples")
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    rank = math.ceil(q * len(sorted_samples))
    return sorted_samples[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``-quantile."""
    return n - math.ceil(q * n)

