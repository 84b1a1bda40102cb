"""Spans for the traced run, recorded from outside the program.

The traced run swaps selected public callables of the simulator (module
functions, methods, class- and static methods) for wrappers that record
one :class:`Span` per call — name, start, end and the span that was open
when the call began — and puts the originals back afterwards.  Nothing
under ``src/`` knows it is being timed.

Clock: process CPU time in nanoseconds, the same clock as the end-to-end
``setup_s`` / ``loop_s`` / ``total_s`` metrics.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, List, Optional


class Span:
    """One timed call: ``[start, end)`` in clock nanoseconds."""

    __slots__ = ("id", "name", "start", "end", "parent")

    def __init__(self, id: int, name: str, start: int, end: int = -1,
                 parent: Optional[int] = None) -> None:
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> int:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent}

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        return cls(data["id"], data["name"], data["start"], data["end"],
                   data["parent"])


def defining_class(cls: type, attr: str) -> type:
    """The class in ``cls``'s MRO whose own namespace holds ``attr``."""
    for klass in cls.__mro__:
        if attr in vars(klass):
            return klass
    raise AttributeError(f"{cls.__name__} has no attribute {attr!r}")


class SpanRecorder:
    """Wraps callables, keeps spans in memory, restores the originals."""

    def __init__(self, clock: Callable[[], int] = time.process_time_ns) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._open: List[Span] = []
        self._patches: list = []

    def wrap(self, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span per call; ``after(args, result)``, if
        given, runs once the span has closed."""
        spans = self.spans
        open_stack = self._open
        clock = self.clock

        def traced(*args, **kwargs):
            parent = open_stack[-1].id if open_stack else None
            span = Span(len(spans), name, clock(), parent=parent)
            spans.append(span)
            open_stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                open_stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str,
              after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (a module or the class that defines it)
        with a span-recording wrapper; :meth:`restore` undoes it."""
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(name, raw.__func__, after))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(name, raw.__func__, after))
        else:
            new = self.wrap(name, raw, after)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, raw))

    def patch_method(self, cls: type, attr: str, name: str,
                     after: Optional[Callable] = None) -> None:
        """Patch ``attr`` on whichever class of ``cls``'s MRO defines it,
        once (a second request for the same definition is a no-op)."""
        owner = defining_class(cls, attr)
        if any(o is owner and a == attr for o, a, _ in self._patches):
            return
        self.patch(owner, attr, name, after)

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


# ---------------------------------------------------------------------- #
# span arithmetic


def self_times(spans: Iterable[Span]) -> Dict[int, int]:
    """Span id -> its duration minus the part its child spans cover.

    Children of one span never overlap (the program is single-threaded),
    so the covered part is the sum of the children's durations."""
    spans = list(spans)
    covered: Dict[int, int] = {}
    for span in spans:
        if span.parent is not None:
            covered[span.parent] = covered.get(span.parent, 0) + span.duration
    return {span.id: span.duration - covered.get(span.id, 0)
            for span in spans}


def layer_self_times(spans: Iterable[Span]) -> Dict[str, int]:
    """Layer (the span name's first component) -> summed self time."""
    spans = list(spans)
    own = self_times(spans)
    totals: Dict[str, int] = {}
    for span in spans:
        totals[span.layer] = totals.get(span.layer, 0) + own[span.id]
    return totals


def inclusive_times(spans: Iterable[Span]) -> Dict[str, int]:
    """Span name -> summed duration of its outermost calls.  A call nested
    inside another call of the same name (a subclass method delegating to
    its base) is already inside the outer one and is not counted again."""
    spans = list(spans)
    by_id = {span.id: span for span in spans}
    totals: Dict[str, int] = {}
    for span in spans:
        parent = span.parent
        nested = False
        while parent is not None:
            ancestor = by_id[parent]
            if ancestor.name == span.name:
                nested = True
                break
            parent = ancestor.parent
        if not nested:
            totals[span.name] = totals.get(span.name, 0) + span.duration
    return totals
