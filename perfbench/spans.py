"""Spans around calls into the program's public functions.

A :class:`SpanRecorder` replaces a module function or class method with
a wrapper that times every call.  The parent of a span is the innermost
open span of the same task or thread, tracked in a context variable, so
asyncio tasks created inside a span inherit it.

Two modes share the wrappers:

- ``keep=True`` keeps every span ``(name, span_id, parent_id, start,
  end)`` in memory until :meth:`SpanRecorder.dump` writes them once, at
  the end of the run; :func:`layer_stats` then derives self time as the
  span's duration minus the union of its children's intervals, which is
  right for concurrent (fanned-out) children.  The live tier uses it.
- ``keep=False`` folds each span into per-name totals as it closes, with
  self time as duration minus the summed durations of its children --
  exact for sequential code, and constant in memory for the simulator's
  million calls.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import time
from typing import Any, Callable

from stats import quantile

Span = tuple[str, int, int, float, float]

_ABSENT = object()
_CURRENT: contextvars.ContextVar[int] = contextvars.ContextVar(
    "perfbench_span", default=0
)
_FRAME: contextvars.ContextVar[list[float] | None] = contextvars.ContextVar(
    "perfbench_frame", default=None
)


class SpanRecorder:
    """Wraps callables and records the calls made through them."""

    def __init__(self, keep: bool = True) -> None:
        self.keep = keep
        # Kept spans; list.append and next() on a counter are atomic, so
        # the tier's loop threads may share one recorder.
        self.spans: list[Span] = []
        # Folded mode: name -> [calls, busy_s, self_s].
        self.totals: dict[str, list[float]] = {}
        # Items handed to calls that declare a counter (e.g. keys).
        self.items: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._patches: list[tuple[Any, str, Any]] = []

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        items: Callable[..., int] | None = None,
    ) -> Callable[..., Any]:
        """A recording wrapper of ``fn`` (plain function or coroutine).

        ``items(*args, **kwargs)``, when given, counts the work units of
        each call into ``self.items[name]``.
        """
        if inspect.iscoroutinefunction(fn):
            if not self.keep:
                raise ValueError("folded spans need sequential calls")
            return self._wrap_async(name, fn, items)
        if self.keep:
            return self._wrap_kept(name, fn, items)
        return self._wrap_folded(name, fn, items)

    def _count(self, name: str, items: Any, args: Any, kwargs: Any) -> None:
        if items is not None:
            self.items[name] = self.items.get(name, 0) + items(*args, **kwargs)

    def _wrap_async(self, name: str, fn: Any, items: Any) -> Any:
        spans, ids, clock = self.spans, self._ids, time.perf_counter

        @functools.wraps(fn)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            self._count(name, items, args, kwargs)
            span_id = next(ids)
            parent = _CURRENT.get()
            token = _CURRENT.set(span_id)
            start = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = clock()
                _CURRENT.reset(token)
                spans.append((name, span_id, parent, start, end))

        return wrapper

    def _wrap_kept(self, name: str, fn: Any, items: Any) -> Any:
        spans, ids, clock = self.spans, self._ids, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self._count(name, items, args, kwargs)
            span_id = next(ids)
            parent = _CURRENT.get()
            token = _CURRENT.set(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                _CURRENT.reset(token)
                spans.append((name, span_id, parent, start, end))

        return wrapper

    def _wrap_folded(self, name: str, fn: Any, items: Any) -> Any:
        totals, clock = self.totals, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self._count(name, items, args, kwargs)
            frame = [0.0]
            outer = _FRAME.get()
            token = _FRAME.set(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                _FRAME.reset(token)
                if outer is not None:
                    outer[0] += duration
                acc = totals.get(name)
                if acc is None:
                    acc = totals[name] = [0, 0.0, 0.0]
                acc[0] += 1
                acc[1] += duration
                acc[2] += duration - frame[0]

        return wrapper

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        items: Callable[..., int] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a recording wrapper until restore."""
        own = vars(owner).get(attr, _ABSENT)
        self._patches.append((owner, attr, own))
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), items))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def dump(self, path: str) -> int:
        """Write every kept span as one JSON line; returns the count."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        return len(self.spans)

    def folded_stats(self) -> dict[str, dict[str, float]]:
        """Per-name calls, busy_s and self_s of the folded mode."""
        return {
            name: {"calls": acc[0], "busy_s": acc[1], "self_s": acc[2]}
            for name, acc in self.totals.items()
        }


def load_spans(path: str) -> list[Span]:
    """Read spans written by :meth:`SpanRecorder.dump`."""
    with open(path, encoding="utf-8") as handle:
        return [tuple(json.loads(line)) for line in handle if line.strip()]


def _covered(
    intervals: list[tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def layer_stats(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy_s, self_s, p50_us and p99_us."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, parent, start, end in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    durations: dict[str, list[float]] = {}
    self_time: dict[str, float] = {}
    for name, span_id, _, start, end in spans:
        durations.setdefault(name, []).append(end - start)
        covered = _covered(children.get(span_id, []), start, end)
        self_time[name] = self_time.get(name, 0.0) + (end - start) - covered
    stats = {}
    for name, values in durations.items():
        values.sort()
        stats[name] = {
            "calls": len(values),
            "busy_s": sum(values),
            "self_s": self_time[name],
            "p50_us": quantile(values, 0.5) * 1e6,
            "p99_us": quantile(values, 0.99) * 1e6,
        }
    return stats
