"""One span model for migration trees and cross-process wire traces.

ElMem's interesting behaviour lives inside a migration: where the
dump -> fusecache -> import -> switch pipeline spent its time, which
(src, dst) pairs retried, and which faults landed mid-flight -- and,
in the live tier, which requests that work disturbed.  A :class:`Tracer`
records both as :class:`Span` s:

- a **migration tree** opened with :meth:`Tracer.root` and grown with
  :meth:`Span.child`, recorded as soon as it opens;
- **wire spans** opened with :meth:`Tracer.start_trace` (sampled) or
  :meth:`Tracer.start_span` (child of a possibly remote parent),
  recorded when they end.  A request carries its
  :class:`TraceContext` to the next process as a
  ``trace <trace_id> <span_id>\\r\\n`` line ahead of the command.

Every span carries a ``trace_id``/``span_id``/``parent_id`` and the
``process`` that recorded it, so spans from several processes rebuild
into one tree per trace (:func:`repro.obs.export.read_jsonl`).  A span
has two clocks:

- **wall** time (``time.time()``, unix seconds): comparable across the
  processes on one host, so migration phases and request spans share
  one timeline;
- **sim** time (the experiment's modeled seconds): where the phase sits
  on the experiment timeline, which is what the paper's figures plot.

One :class:`random.Random` per tracer, seeded with its process label
and seed, draws every id and every sampling decision, so a fixed seed
gives the same ids for the same run.
When tracing is disabled the module-level :data:`NULL_TRACER` /
:data:`NULL_SPAN` singletons absorb every call as a no-op, and hot paths
test the single ``Tracer.sampling`` attribute before touching a span.
"""

from __future__ import annotations

import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from random import Random
from typing import Any, Iterator, Sequence

#: Maximum accepted lengths for the hex ids in a ``trace`` wire frame.  Our
#: generator emits 16 hex chars; the caps leave headroom for W3C-style 128-bit
#: trace ids while still bounding hostile input.
TRACE_ID_MAX = 32
SPAN_ID_MAX = 16

_HEX_DIGITS = frozenset("0123456789abcdef")


@dataclass(frozen=True, slots=True)
class TraceContext:
    """The (trace_id, span_id) pair carried across a process boundary."""

    trace_id: str
    span_id: str

    def wire_prefix(self) -> bytes:
        """Render the ``trace`` framing line prepended to a wire request."""
        return f"trace {self.trace_id} {self.span_id}\r\n".encode("ascii")


def _valid_hex(token: str, max_len: int) -> bool:
    return 0 < len(token) <= max_len and all(ch in _HEX_DIGITS for ch in token)


def parse_trace_args(args: Sequence[str]) -> TraceContext | None:
    """Validate the arguments of a ``trace`` wire frame.

    Returns ``None`` for anything malformed: wrong arity, non-hex digits,
    uppercase (the wire format is lowercase-only), or oversized fields.
    Rejection is deterministic -- no partial parses.
    """
    if len(args) != 2:
        return None
    trace_id, span_id = args
    if not _valid_hex(trace_id, TRACE_ID_MAX):
        return None
    if not _valid_hex(span_id, SPAN_ID_MAX):
        return None
    return TraceContext(trace_id=trace_id, span_id=span_id)


#: Ambient trace context for the current asyncio task or thread.
#: ``ProxyServer`` sets it around request dispatch and ``NodeClient`` reads
#: it when writing to the wire; a live scenario sets it on its own thread
#: while an event runs, so :meth:`Tracer.root` joins the event's trace.
#: A new thread starts with an empty context, but
#: ``run_coroutine_threadsafe`` runs each coroutine in a copy of the
#: submitting thread's context, so the scenario's context reaches the
#: clients on the cluster's loop thread.
CURRENT_CONTEXT: ContextVar[TraceContext | None] = ContextVar(
    "repro_trace_context", default=None
)


def current_context() -> TraceContext | None:
    """Return the ambient :class:`TraceContext`, if any."""
    return CURRENT_CONTEXT.get()


@dataclass
class SpanEvent:
    """A point-in-time annotation on a span (retry, fault, failure)."""

    name: str
    wall_s: float
    sim_s: float | None = None
    attributes: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form."""
        return {
            "name": self.name,
            "wall_s": self.wall_s,
            "sim_s": self.sim_s,
            "attributes": self.attributes,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SpanEvent":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=data["name"],
            wall_s=data.get("wall_s", 0.0),
            sim_s=data.get("sim_s"),
            attributes=dict(data.get("attributes", {})),
        )


class Span:
    """One timed operation, possibly containing child spans.

    Ids are drawn from ``tracer`` (a span built without one has empty
    ids); ``parent`` makes the span a child of that context, local or
    remote.
    """

    __slots__ = (
        "name",
        "attributes",
        "events",
        "children",
        "start_wall_s",
        "end_wall_s",
        "start_sim_s",
        "end_sim_s",
        "trace_id",
        "span_id",
        "parent_id",
        "process",
        "_tracer",
        "_record_on_end",
    )

    enabled = True

    def __init__(
        self,
        name: str,
        sim_s: float | None = None,
        *,
        tracer: "Tracer | None" = None,
        parent: TraceContext | None = None,
        start_wall_s: float | None = None,
        attributes: dict[str, Any] | None = None,
    ) -> None:
        self.name = name
        self.attributes: dict[str, Any] = attributes or {}
        self.events: list[SpanEvent] = []
        self.children: list[Span] = []
        self._tracer = tracer
        self._record_on_end = False
        self.process = "" if tracer is None else tracer.process
        if parent is None:
            self.trace_id = "" if tracer is None else tracer._new_id()
            self.parent_id: str | None = None
        else:
            self.trace_id = parent.trace_id
            self.parent_id = parent.span_id
        self.span_id = "" if tracer is None else tracer._new_id()
        self.start_wall_s = (
            time.time() if start_wall_s is None else start_wall_s
        )
        self.end_wall_s: float | None = None
        self.start_sim_s = sim_s
        self.end_sim_s: float | None = None

    # -- recording -------------------------------------------------------

    @property
    def context(self) -> TraceContext:
        """The context a child -- here or in another process -- joins."""
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    def child(
        self, name: str, sim_s: float | None = None, **attributes: Any
    ) -> "Span":
        """Open a child span; the caller must :meth:`end` it."""
        span = Span(
            name,
            sim_s,
            tracer=self._tracer,
            parent=self.context,
            attributes=attributes,
        )
        self.children.append(span)
        return span

    def event(
        self, name: str, sim_s: float | None = None, **attributes: Any
    ) -> SpanEvent:
        """Record a point-in-time event on this span."""
        record = SpanEvent(
            name=name, wall_s=time.time(), sim_s=sim_s, attributes=attributes
        )
        self.events.append(record)
        return record

    def set(self, **attributes: Any) -> None:
        """Merge attributes into the span."""
        self.attributes.update(attributes)

    def sim_window(self, start: float, end: float) -> None:
        """Pin the span to an explicit sim-clock interval.

        Planning computes modeled phase durations *after* doing the real
        work, so phase spans get their sim window assigned post hoc while
        their wall clock measured the actual computation.
        """
        self.start_sim_s = start
        self.end_sim_s = end

    def end(
        self, sim_s: float | None = None, *, wall_s: float | None = None
    ) -> None:
        """Close the span (idempotent for the wall clock); a wire span
        is recorded in its tracer here, once."""
        if self.end_wall_s is None:
            self.end_wall_s = time.time() if wall_s is None else wall_s
            if self._record_on_end and self._tracer is not None:
                self._tracer.roots.append(self)
        if sim_s is not None:
            self.end_sim_s = sim_s

    # -- reading ---------------------------------------------------------

    @property
    def ended(self) -> bool:
        """True once :meth:`end` has been called."""
        return self.end_wall_s is not None

    @property
    def wall_s(self) -> float:
        """Wall-clock duration (up to now while still open)."""
        end = self.end_wall_s if self.end_wall_s is not None else time.time()
        return end - self.start_wall_s

    @property
    def sim_s(self) -> float | None:
        """Sim-clock duration, when both endpoints were recorded."""
        if self.start_sim_s is None or self.end_sim_s is None:
            return None
        return self.end_sim_s - self.start_sim_s

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """First descendant (or self) with ``name``, depth-first."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> list["Span"]:
        """Every descendant (or self) with ``name``, depth-first order."""
        return [span for span in self.walk() if span.name == name]

    # -- serialisation ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable flat form: ids instead of embedded children."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "process": self.process,
            "start_wall_s": self.start_wall_s,
            "end_wall_s": self.end_wall_s,
            "start_sim_s": self.start_sim_s,
            "end_sim_s": self.end_sim_s,
            "attributes": self.attributes,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        """Rebuild one span written by :meth:`to_dict` (no children)."""
        span = cls(
            str(data["name"]),
            data.get("start_sim_s"),
            start_wall_s=float(data["start_wall_s"]),
            attributes=dict(data.get("attributes") or {}),
        )
        span.trace_id = str(data["trace_id"])
        span.span_id = str(data["span_id"])
        span.parent_id = data.get("parent_id")
        span.process = str(data.get("process", ""))
        span.end_wall_s = data.get("end_wall_s")
        span.end_sim_s = data.get("end_sim_s")
        span.events = [
            SpanEvent.from_dict(event) for event in data.get("events", [])
        ]
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, children={len(self.children)}, "
            f"events={len(self.events)})"
        )


class _NullSpan:
    """Absorbs every span operation when tracing is disabled."""

    __slots__ = ()

    enabled = False
    name = ""
    attributes: dict[str, Any] = {}
    events: tuple = ()
    children: tuple = ()
    context = None
    start_sim_s = None
    end_sim_s = None
    sim_s = None
    wall_s = 0.0
    ended = True

    def child(
        self, name: str, sim_s: float | None = None, **attributes: Any
    ) -> "_NullSpan":
        return self

    def event(
        self, name: str, sim_s: float | None = None, **attributes: Any
    ) -> None:
        return None

    def set(self, **attributes: Any) -> None:
        return None

    def sim_window(self, start: float, end: float) -> None:
        return None

    def end(
        self, sim_s: float | None = None, *, wall_s: float | None = None
    ) -> None:
        return None

    def walk(self):
        return iter(())

    def find(self, name: str) -> None:
        return None

    def find_all(self, name: str) -> list:
        return []


NULL_SPAN = _NullSpan()
"""Shared no-op span; safe to use as a default everywhere."""


class Tracer:
    """Collects one process's spans and run-level events.

    ``roots`` holds the process's top-level spans: trees opened with
    :meth:`root` (recorded when they open) and wire spans (recorded when
    they end).  ``sample_rate`` is the fraction of requests that start a
    wire trace; wire tracing is on exactly when it is above zero, which
    ``sampling`` caches for hot-path checks.
    """

    enabled = True

    def __init__(
        self,
        process: str = "repro",
        *,
        sample_rate: float = 0.0,
        seed: int = 0,
    ) -> None:
        self.process = process
        self.sample_rate = max(0.0, min(1.0, sample_rate))
        self.sampling = self.sample_rate > 0.0
        self.roots: list[Span] = []
        self.events: list[SpanEvent] = []
        # Seeded with the process label too, so two processes sharing a
        # seed still draw distinct ids.
        self._rng = Random(f"{process}/{seed}")

    def _new_id(self) -> str:
        return f"{self._rng.getrandbits(64):016x}"

    def root(
        self, name: str, sim_s: float | None = None, **attributes: Any
    ) -> Span:
        """Open a top-level span (e.g. one migration).

        It joins the ambient :data:`CURRENT_CONTEXT` when one is set, so
        a migration run inside a traced scenario event lands in the
        event's trace; otherwise it starts a trace of its own.
        """
        span = Span(
            name,
            sim_s,
            tracer=self,
            parent=CURRENT_CONTEXT.get(),
            attributes=attributes,
        )
        self.roots.append(span)
        return span

    def start_trace(self, name: str, **attributes: Any) -> Span | None:
        """Begin a sampled wire trace; ``None`` when not sampled."""
        if not self.sampling:
            return None
        if self.sample_rate < 1.0 and self._rng.random() >= self.sample_rate:
            return None
        return self.start_span(name, None, **attributes)

    def start_span(
        self,
        name: str,
        parent: TraceContext | None,
        *,
        start_s: float | None = None,
        **attributes: Any,
    ) -> Span:
        """Begin a wire span under ``parent`` (remote or local), recorded
        when it ends."""
        span = Span(
            name,
            tracer=self,
            parent=parent,
            start_wall_s=start_s,
            attributes=attributes,
        )
        span._record_on_end = True
        return span

    def event(
        self, name: str, sim_s: float | None = None, **attributes: Any
    ) -> SpanEvent:
        """Record a run-level event not tied to any span (e.g. an
        autoscaler decision or an injected fault)."""
        record = SpanEvent(
            name=name, wall_s=time.time(), sim_s=sim_s, attributes=attributes
        )
        self.events.append(record)
        return record

    def find_roots(self, name: str) -> list[Span]:
        """Root spans with the given name, in recording order."""
        return [span for span in self.roots if span.name == name]


class _NullTracer:
    """Absorbs every tracer operation when tracing is disabled."""

    __slots__ = ()

    enabled = False
    sampling = False
    roots: tuple = ()
    events: tuple = ()

    def root(
        self, name: str, sim_s: float | None = None, **attributes: Any
    ) -> _NullSpan:
        return NULL_SPAN

    def event(
        self, name: str, sim_s: float | None = None, **attributes: Any
    ) -> None:
        return None

    def find_roots(self, name: str) -> list:
        return []


NULL_TRACER = _NullTracer()
"""Shared no-op tracer; the default wired into every component."""
