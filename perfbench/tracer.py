"""Spans recorded from outside the program.

The benchmark never edits the program's files: a traced op swaps chosen
module- or class-level functions for wrappers that time each call
(:meth:`Tracer.patch`) and restores the originals afterwards, so
untraced ops run the program's own functions.  Spans are kept in memory as
``(name, start, end, parent, op_id)`` on the monotonic clock and
written out as JSONL once the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]   # index of the enclosing span, if any
    op_id: int


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def begin(self, name: str, at: Optional[float] = None) -> int:
        """Open a span now, or at the earlier monotonic time ``at``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.monotonic() if at is None else at,
                               0.0, parent, self.op_id))
        self._stack.append(index)
        return index

    def end(self, index: int, at: Optional[float] = None) -> None:
        """Close a span now, or at the earlier monotonic time ``at``."""
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed "
                               f"out of order")
        self.spans[index] = self.spans[index]._replace(
            end=time.monotonic() if at is None else at)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def timed(self, name: str, fn: Callable,
              after: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span; ``after(result, args, kwargs)``
        (if given) records counters from the call."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(result, args, kwargs)
            return result
        return wrapper

    # -- patching ----------------------------------------------------------
    def patch(self, owner: object, attr: str, name: str,
              after: Optional[Callable] = None,
              wrap: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a timed wrapper until
        :meth:`unpatch_all`.  ``wrap(original)`` builds a custom wrapper
        instead (for calls whose counters need state around the call)."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        replacement = wrap(original) if wrap is not None \
            else self.timed(name, original, after)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def unpatch_all(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------
    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")


def self_times(spans: List[Span]) -> List[float]:
    """Per-span self time: the span's duration minus the part of its
    interval that its direct children cover.

    Children of one parent may overlap (spans recorded by concurrent
    callers), so their intervals are merged before subtracting.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start = max(start, cursor)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(max(0.0, span.end - span.start - covered))
    return result


def totals(spans: List[Span], op_ids=None) -> Dict[str, Dict[str, float]]:
    """Per span name: ``count``, total ``seconds`` and ``self_seconds``
    over the spans of ``op_ids`` (all spans when ``None``)."""
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"count": 0, "seconds": 0.0, "self_seconds": 0.0})
    for span, self_time in zip(spans, own):
        if op_ids is not None and span.op_id not in op_ids:
            continue
        entry = out[span.name]
        entry["count"] += 1
        entry["seconds"] += span.end - span.start
        entry["self_seconds"] += self_time
    return dict(out)
