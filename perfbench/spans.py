"""Spans recorded around the program's public calls, from outside it.

A :class:`Tracer` patches chosen functions and methods of the program
with thin wrappers. While the tracer is enabled each wrapped call
records one span: name, start, end, parent and thread. Nothing inside
the program changes; :meth:`Tracer.restore` puts every original back.

Parentage: a span's parent is the innermost open span of its own
thread. A span opened on a thread with no open span (a dispatch pool
or selector thread serving the request in flight) takes either the
span a ``parent`` hook names or the innermost open *anchor* span --
the request-path spans, of which a closed-loop client has one chain
open at a time.

Self time is a span's duration minus the part of it that its child
spans cover (the union of their intervals, so concurrent children are
not subtracted twice).
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "thread")

    def __init__(
        self, span_id: int, name: str, start: float, parent: "Optional[int]", thread: int
    ) -> None:
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: "List[Span]" = []
        self.counts: "Counter[str]" = Counter()
        self.local = threading.local()
        self._anchors: "List[Span]" = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._patches: "List[Tuple[object, str, object]]" = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> "List[Span]":
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def open(
        self, name: str, anchor: bool = False, parent: "Optional[Span]" = None
    ) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif parent is None:
            try:
                parent = self._anchors[-1]
            except IndexError:
                parent = None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(
            span_id,
            name,
            time.perf_counter(),
            parent.id if parent is not None else None,
            threading.get_ident(),
        )
        stack.append(span)
        if anchor:
            self._anchors.append(span)
        return span

    def close(self, span: Span, anchor: bool = False) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if anchor:
            self._anchors.remove(span)
        with self._lock:
            self.spans.append(span)

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            with self._lock:
                self.counts[name] += amount

    def take(self) -> "Tuple[List[Span], Counter[str]]":
        """Hand over and forget everything recorded so far."""
        with self._lock:
            spans, counts = self.spans, self.counts
            self.spans, self.counts = [], Counter()
        return spans, counts

    # -- patching --------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        name: "str | Callable[..., str]",
        anchor: bool = False,
        parent: "Optional[Callable[[], Optional[Span]]]" = None,
        observe: "Optional[Callable[[tuple, object], None]]" = None,
        on_open: "Optional[Callable[[tuple, Span], None]]" = None,
        on_close: "Optional[Callable[[tuple, Span], None]]" = None,
    ) -> Callable:
        """``fn`` wrapped to record one span per call while enabled.

        ``name`` may be a function of the call's positional arguments
        (to split one function's spans by an argument). ``observe``
        sees the arguments and the result, for counts such as bytes.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args: object, **kwargs: object) -> object:
            if not tracer.enabled:
                return fn(*args, **kwargs)
            label = name(*args) if callable(name) else name
            span = tracer.open(label, anchor, parent() if parent else None)
            if on_open is not None:
                on_open(args, span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span, anchor)
                if on_close is not None:
                    on_close(args, span)
            tracer.count(label + ".calls")
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def patch(self, owner: object, attribute: str, name: "str | Callable[..., str]", **options: object) -> None:
        """Replace ``owner.attribute`` with its traced wrapper."""
        self.replace(owner, attribute, self.wrap(getattr(owner, attribute), name, **options))  # type: ignore[arg-type]

    def replace(self, owner: object, attribute: str, replacement: object) -> None:
        """Set ``owner.attribute``, remembering the original for restore()."""
        self._patches.append((owner, attribute, owner.__dict__.get(attribute, _MISSING)))  # type: ignore[attr-defined]
        setattr(owner, attribute, replacement)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        self.enabled = False
        while self._patches:
            owner, attribute, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)


_MISSING = object()


def _covered(start: float, end: float, intervals: "Iterable[Tuple[float, float]]") -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: "Iterable[Span]") -> "Dict[str, float]":
    """Seconds of self time per span name."""
    spans = list(spans)
    children: "Dict[int, List[Tuple[float, float]]]" = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    totals: "Dict[str, float]" = defaultdict(float)
    for span in spans:
        duration = span.end - span.start
        totals[span.name] += duration - _covered(
            span.start, span.end, children.get(span.id, ())
        )
    return dict(totals)
