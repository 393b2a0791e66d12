"""Spans around calls into the engine, and the self time they imply.

A span is one call into a layer's public entry point: a name, a start,
an end, and the span that was open when it began (its parent).  A
layer's *self time* is its span's duration minus the part of that
interval its child spans cover, so summing self time over every span
of a run -- the benchmark's own root span included -- gives back the
root's wall time exactly: each instant is charged to the innermost
span open at that instant.

:class:`Recorder` computes self time online, keeping nothing per closed
span but its layer's running totals, so memory stays bounded however
many calls a run makes; :func:`tree_self_times` is the same definition
over a span tree held in memory, which the tests hold it to.

Wrappers are installed by replacing attributes (class methods, module
globals, registry entries) and undone afterwards, see :func:`patched`.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

Interval = Tuple[float, float]

#: ``tally(recorder, args, result)`` -- counts taken where the work happens
Tally = Callable[["Recorder", tuple, Any], None]


def covered(intervals: Sequence[Interval], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_time(start: float, end: float,
              children: Sequence[Interval]) -> float:
    """A span's duration minus the part its children cover."""
    return (end - start) - covered(children, start, end)


class Span:
    """A recorded span, for building and checking span trees by hand."""

    __slots__ = ("name", "start", "end", "children")

    def __init__(self, name: str, start: float, end: float,
                 children: Sequence["Span"] = ()) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.children = list(children)


def tree_self_times(root: Span) -> Dict[str, float]:
    """Per-name self time over a span tree (the offline definition)."""
    totals: Dict[str, float] = defaultdict(float)
    pending = [root]
    while pending:
        span = pending.pop()
        totals[span.name] += self_time(
            span.start, span.end,
            [(child.start, child.end) for child in span.children])
        pending.extend(span.children)
    return dict(totals)


class Recorder:
    """Per-layer self time, span counts and tallies for one traced run.

    Spans come from wrapped calls in one thread, so a span's children
    are sequential and lie inside it: the part of it they cover is the
    sum of their durations.  Each open span therefore needs one float,
    the child time so far, and a closed span adds its duration to its
    parent's.  A call costs two clock reads and a few list and dict
    operations, and allocates nothing the garbage collector tracks.
    """

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.peaks: Dict[str, int] = defaultdict(int)
        #: child time of every open span, innermost last
        self._child_s: List[float] = []

    # -- spans ------------------------------------------------------------
    def _enter(self) -> float:
        self._child_s.append(0.0)
        return self.clock()

    def _exit(self, name: str, start: float) -> None:
        duration = self.clock() - start
        self.self_s[name] += duration - self._child_s.pop()
        self.calls[name] += 1
        if self._child_s:
            self._child_s[-1] += duration

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        start = self._enter()
        try:
            yield
        finally:
            self._exit(name, start)

    def wrap(self, name: str, fn: Callable,
             tally: Optional[Tally] = None) -> Callable:
        """``fn`` recording one ``name`` span per call.

        Inlines :meth:`_enter`/:meth:`_exit`: wrappers sit on per-packet
        entry points, and their own cost lands in the parent's self time.
        """
        clock = self.clock
        child_s = self._child_s
        self_s = self.self_s
        calls = self.calls

        def traced(*args, **kwargs):
            child_s.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self_s[name] += duration - child_s.pop()
                calls[name] += 1
                if child_s:
                    child_s[-1] += duration
            if tally is not None:
                tally(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """A generator function whose every resumption is a span.

        The caller runs its own code between pulls; only the time spent
        producing each item belongs to the layer.
        """
        enter = self._enter
        leave = self._exit

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                start = enter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    leave(name, start)
                yield item

        traced.__wrapped__ = fn
        return traced

    # -- tallies ------------------------------------------------------------
    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def peak(self, name: str, value: int) -> None:
        if value > self.peaks[name]:
            self.peaks[name] = value


# -- installing wrappers -------------------------------------------------------

_MISSING = object()


@contextmanager
def patched(patches: Sequence[Tuple[Any, str, Any]]) -> Iterator[None]:
    """Set each ``(owner, name, value)`` for the duration, then undo.

    ``owner`` is a class or module (attribute) or a dict (item).  A
    class that inherited the attribute gets its own for the duration
    and loses it again afterwards, so the base class stays untouched.
    """
    undo = []
    try:
        for owner, name, value in patches:
            if isinstance(owner, dict):
                undo.append((owner, name, owner.get(name, _MISSING)))
                owner[name] = value
            else:
                undo.append((owner, name, vars(owner).get(name, _MISSING)))
                setattr(owner, name, value)
        yield
    finally:
        for owner, name, original in reversed(undo):
            if isinstance(owner, dict):
                if original is _MISSING:
                    del owner[name]
                else:
                    owner[name] = original
            elif original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
