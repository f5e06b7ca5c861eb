"""One live scenario runner: a harness, a tape, and timed events.

:class:`LiveScenario` is the skeleton every live story shares:

1. enter a harness -- :class:`~repro.net.server.LiveClusterHarness`,
   :class:`~repro.net.procs.ProcessClusterHarness`, or a proxy harness:
   anything with ``endpoints`` and the context-manager surface;
2. open one :class:`~repro.net.cluster.LiveCluster` (and an unmodified
   :class:`~repro.core.master.Master` over it) on those endpoints and,
   with a tape, seed every key the tape touches;
3. replay the optional open-loop tape with the one
   :class:`~repro.loadgen.driver.LoadGenerator` on a worker thread
   (the Master's post-switch membership callback re-rings it);
4. fire an ordered list of :class:`Event` objects on the calling
   thread -- each an action at a tape time or right after the previous
   event, plus an optional "until" probe;
5. stop and join the generator on every exit path, run deferred
   cleanups, close the cluster, and leave the harness.

:func:`degradation_window` is the one definition of the window every
live artifact reports.  :func:`run_load` and :func:`run_load_migration`
here, :func:`~repro.proxy.chaos.run_proxy_chaos`,
:func:`~repro.net.livemigrate.run_live_migration` and
:func:`~repro.controlplane.scenario.run_controlplane_scenario` are short
event lists over it.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.core.master import Master
from repro.errors import ConfigurationError
from repro.loadgen.driver import (
    DEFAULT_LATE_THRESHOLD_S,
    DEFAULT_TICK_S,
    LoadGenerator,
)
from repro.loadgen.report import LoadReport
from repro.loadgen.schedule import ScheduledOp, build_schedule, payload_for
from repro.memcached.slab import PAGE_SIZE
from repro.net.cluster import LiveCluster
from repro.net.procs import ProcessClusterHarness
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.obs.trace import CURRENT_CONTEXT
from repro.workloads.traces import make_trace

SEED_BATCH = 2000
"""Keys per pipelined seeding batch."""

DEFAULT_MEMORY_PER_NODE = 8 * PAGE_SIZE
"""Node memory for self-hosted load runs (plenty for the default tape)."""

WINDOW_FIELDS = (
    "killed_at_s",
    "recovered_at_s",
    "window_s",
    "errors_in_window",
)
"""The keys of every degradation window block (see
:func:`degradation_window`)."""

DRIVER_GRACE_S = 120.0
"""How long past the tape's last deadline the driver may take to drain."""


@dataclass
class Event:
    """One scripted step of a :class:`LiveScenario`.

    ``action`` runs at ``at_s`` on the scenario clock (the tape's, when
    there is one) or right after the previous event when ``None``; ``until``, when given, is then polled every
    ``poll_s`` until it holds or ``timeout_s`` passes.  The run fills in
    ``result`` and, on the scenario clock, ``started_s`` (before the
    action) and ``settled_s`` (once ``until`` held; ``None`` if it never
    did).
    """

    name: str
    action: Callable[["LiveScenario"], Any] | None = None
    at_s: float | None = None
    until: Callable[["LiveScenario"], bool] | None = None
    timeout_s: float = 30.0
    poll_s: float = 0.05
    result: Any = None
    started_s: float | None = None
    settled_s: float | None = None


def degradation_window(
    event_at: float | None,
    settled_at: float | None,
    error_timeline: Iterable[tuple[float, str]],
) -> dict[str, Any]:
    """The degradation window of one scale or fault event.

    ``killed_at_s`` is when the event fired; ``recovered_at_s`` is when
    the event had settled *and* the last error at or after it was
    behind us; ``window_s`` is their difference; ``errors_in_window``
    counts the errors from the event on (earlier ones are ignored).  An
    event that never fired or never settled leaves recovery and the
    window ``None``.  Times are seconds on the scenario clock.
    """
    errors = (
        []
        if event_at is None
        else [t for t, _ in error_timeline if t >= event_at]
    )
    recovered = (
        None
        if event_at is None or settled_at is None
        else max([settled_at, *errors])
    )
    return {
        "killed_at_s": None if event_at is None else round(event_at, 3),
        "recovered_at_s": None if recovered is None else round(recovered, 3),
        "window_s": (
            None
            if recovered is None or event_at is None
            else round(recovered - event_at, 3)
        ),
        "errors_in_window": len(errors),
    }


class LiveScenario:
    """Harness + optional tape + ordered events; see the module doc.

    ``seed_value_bytes`` (with a tape) stores every distinct tape key
    once before the tape starts, so its gets can hit.  ``telemetry`` is
    shared by the cluster clients and the Master; when it records, the
    run is one trace -- a ``name`` root with one phase span per event,
    the Master's migration trees and (when its tracer samples) the
    cluster's wire operations joined to the phase that caused them --
    exported to ``trace_jsonl`` when given.  ``cluster_options`` and
    ``generator_options`` pass through to
    :class:`~repro.net.cluster.LiveCluster` and
    :class:`~repro.loadgen.driver.LoadGenerator`.
    """

    def __init__(
        self,
        harness: Any,
        events: Iterable[Event] = (),
        schedule: list[ScheduledOp] | None = None,
        *,
        name: str = "live_scenario",
        seed_value_bytes: int | None = None,
        telemetry: Telemetry | None = None,
        trace_jsonl: str | None = None,
        cluster_options: dict[str, Any] | None = None,
        generator_options: dict[str, Any] | None = None,
    ) -> None:
        self.harness = harness
        self.events = list(events)
        self.schedule = schedule
        self.name = name
        self.seed_value_bytes = seed_value_bytes
        self.telemetry = telemetry
        self.trace_jsonl = trace_jsonl
        self.cluster_options = dict(cluster_options or {})
        self.generator_options = dict(generator_options or {})
        self.live: Any = None
        self.master: Any = None
        self.generator: LoadGenerator | None = None
        self.trace_spans = 0
        self._anchor = time.perf_counter()
        self._driver: threading.Thread | None = None
        self._driver_error: BaseException | None = None
        self._cleanups: list[Callable[[], Any]] = []

    # -- surface for event actions ---------------------------------------

    def now(self) -> float:
        """Seconds on the scenario clock (the tape's, once it runs)."""
        if self.generator is not None and self.generator.started.is_set():
            return self.generator.now()
        return time.perf_counter() - self._anchor

    def defer(self, cleanup: Callable[[], Any]) -> None:
        """Run ``cleanup`` on every exit path, before the cluster closes."""
        self._cleanups.append(cleanup)

    # -- the run ---------------------------------------------------------

    def run(self) -> "LiveScenario":
        """Run every event against the harness; returns ``self``."""
        telemetry = self.telemetry or NULL_TELEMETRY
        tracer: Any = telemetry.tracer
        with self.harness:
            self.live = LiveCluster(
                self.harness.endpoints,
                telemetry=self.telemetry,
                **self.cluster_options,
            )
            self.master = Master(self.live, telemetry=self.telemetry)
            root = tracer.root(self.name)
            try:
                self._anchor = time.perf_counter()
                if self.schedule is not None:
                    self._start_driver()
                for event in self.events:
                    self._fire(event, root, tracer.sampling)
                self._join_driver(stop=False)
            finally:
                self._join_driver(stop=True)
                while self._cleanups:
                    self._cleanups.pop()()
                root.end()
                self.live.close()
        for label, sanitizer in (
            ("live-harness loop", getattr(self.harness, "sanitizer", None)),
            ("live-cluster loop", self.live.sanitizer),
        ):
            if sanitizer is not None:
                sanitizer.check(label)
        self.trace_spans = sum(1 for top in tracer.roots for _ in top.walk())
        if self.trace_jsonl is not None and tracer.enabled:
            from repro.obs.export import write_jsonl

            write_jsonl(
                self.trace_jsonl,
                tracer=tracer,
                metrics=telemetry.metrics,
                meta={"scenario": self.name},
            )
        return self

    def _fire(self, event: Event, root: Any, sampling: bool) -> None:
        if event.at_s is not None:
            delay = event.at_s - self.now()
            if delay > 0:
                time.sleep(delay)
        span = root.child(event.name)
        # When the tracer samples, the Master's spans join the phase
        # through the ambient context; so do the cluster's wire spans,
        # because run_coroutine_threadsafe runs each client call in a
        # copy of this thread's context.  When it does not, no wire span
        # is recorded and the context would only add frames to the wire.
        token = CURRENT_CONTEXT.set(span.context) if sampling else None
        event.started_s = self.now()
        try:
            if event.action is not None:
                event.result = event.action(self)
            deadline = time.monotonic() + event.timeout_s
            while event.until is not None and not event.until(self):
                if time.monotonic() >= deadline:
                    return
                time.sleep(event.poll_s)
            event.settled_s = self.now()
        finally:
            if token is not None:
                CURRENT_CONTEXT.reset(token)
            span.end()

    def _start_driver(self) -> None:
        assert self.schedule is not None
        if self.seed_value_bytes is not None:
            self._seed(self.seed_value_bytes)
        generator = LoadGenerator(
            self.harness.endpoints, self.schedule, **self.generator_options
        )
        self.generator = generator
        self.master.subscribe_membership(generator.set_membership)

        def _worker() -> None:
            try:
                asyncio.run(generator.run())
            except BaseException as exc:  # re-raised on the caller thread
                self._driver_error = exc

        self._driver = threading.Thread(
            target=_worker, name="loadgen-driver", daemon=True
        )
        self._driver.start()
        if not generator.started.wait(timeout=30.0):
            raise ConfigurationError("load generator failed to start")

    def _join_driver(self, stop: bool) -> None:
        """Join the driver; ``stop`` first halts sending (error path)."""
        thread, generator = self._driver, self.generator
        if thread is None or generator is None:
            return
        self._driver = None
        if stop:
            generator.stop()
            thread.join(timeout=DRIVER_GRACE_S)
            return
        tape_s = generator.schedule[-1].send_at_s
        thread.join(timeout=max(0.0, tape_s - self.now()) + DRIVER_GRACE_S)
        if thread.is_alive():
            raise ConfigurationError("load generator did not finish in time")
        if self._driver_error is not None:
            raise self._driver_error

    def _seed(self, value_bytes: int) -> None:
        """Store every distinct tape key once."""
        assert self.schedule is not None
        distinct = sorted({op.key for op in self.schedule})
        for start in range(0, len(distinct), SEED_BATCH):
            self.live.set_many(
                [
                    (key, (0, payload_for(key, value_bytes)), value_bytes)
                    for key in distinct[start : start + SEED_BATCH]
                ],
                now=0.0,
            )


class ExternalCluster:
    """A harness over an already-running cluster: nothing to boot."""

    def __init__(self, endpoints: dict[str, tuple[str, int]]) -> None:
        self.endpoints = dict(endpoints)

    def __enter__(self) -> "ExternalCluster":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


def node_names(nodes: int) -> list[str]:
    """Names of a self-hosted process cluster's nodes."""
    return [f"proc-{index:02d}" for index in range(nodes)]


def run_load(
    rate: float,
    duration_s: float,
    seed: int = 0,
    endpoints: dict[str, tuple[str, int]] | None = None,
    nodes: int = 3,
    memory_per_node: int = DEFAULT_MEMORY_PER_NODE,
    num_keys: int = 5000,
    set_fraction: float = 0.1,
    value_bytes: int = 64,
    trace: str | None = None,
    tick_s: float = DEFAULT_TICK_S,
    max_inflight: int = 32,
    timeout_s: float = 5.0,
    late_threshold_s: float = DEFAULT_LATE_THRESHOLD_S,
    seed_data: bool = True,
) -> LoadReport:
    """One steady-state open-loop run; returns its report.

    With ``endpoints`` the run targets an externally managed cluster;
    otherwise it boots ``nodes`` node *processes* for the duration.
    """
    schedule = build_schedule(
        rate,
        duration_s,
        seed=seed,
        num_keys=num_keys,
        set_fraction=set_fraction,
        value_bytes=value_bytes,
        trace=None if trace is None else make_trace(trace),
    )
    harness: Any
    if endpoints is not None:
        harness = ExternalCluster(endpoints)
    elif nodes < 1:
        raise ConfigurationError("need at least one node")
    else:
        harness = ProcessClusterHarness(node_names(nodes), memory_per_node)
    generator = LiveScenario(
        harness,
        schedule=schedule,
        seed_value_bytes=value_bytes if seed_data else None,
        cluster_options={"timeout_s": timeout_s},
        generator_options={
            "tick_s": tick_s,
            "max_inflight": max_inflight,
            "timeout_s": timeout_s,
            "late_threshold_s": late_threshold_s,
        },
    ).run().generator
    assert generator is not None
    return generator.report("steady", rate, duration_s, seed, trace=trace)


def run_load_migration(
    rate: float,
    duration_s: float,
    seed: int = 7,
    nodes: int = 4,
    retire: int = 1,
    memory_per_node: int = DEFAULT_MEMORY_PER_NODE,
    num_keys: int = 5000,
    set_fraction: float = 0.1,
    value_bytes: int = 64,
    trace: str | None = None,
    migrate_at_frac: float = 0.35,
    tick_s: float = DEFAULT_TICK_S,
    max_inflight: int = 32,
    timeout_s: float = 5.0,
    late_threshold_s: float = DEFAULT_LATE_THRESHOLD_S,
) -> LoadReport:
    """Scale in ``retire`` of ``nodes`` node processes mid-load.

    Events: plan at ``migrate_at_frac`` of the tape, execute the
    three-phase migration, then stop the retired processes -- scale-in
    means the OS process is gone, not just out of the ring.  The
    report's ``migration`` block carries the plan outcome and the
    :func:`degradation_window` of the execute event.
    """
    if nodes < 3:
        raise ConfigurationError(
            "a migration load run needs at least 3 nodes"
        )
    if not 0 < retire < nodes:
        raise ConfigurationError(
            f"retire must be in [1, {nodes - 1}], got {retire}"
        )
    if not 0.0 < migrate_at_frac < 1.0:
        raise ConfigurationError("migrate_at_frac must be within (0, 1)")
    schedule = build_schedule(
        rate,
        duration_s,
        seed=seed,
        num_keys=num_keys,
        set_fraction=set_fraction,
        value_bytes=value_bytes,
        trace=None if trace is None else make_trace(trace),
    )
    plan = Event(
        "plan",
        lambda s: s.master.plan_scale_in(s.master.choose_retiring(retire)),
        at_s=duration_s * migrate_at_frac,
    )
    execute = Event("execute", lambda s: s.master.execute(plan.result))
    drain = Event(
        "drain",
        lambda s: [s.harness.stop_node(name) for name in plan.result.retiring],
    )
    generator = LiveScenario(
        ProcessClusterHarness(node_names(nodes), memory_per_node),
        [plan, execute, drain],
        schedule,
        seed_value_bytes=value_bytes,
        cluster_options={"timeout_s": timeout_s},
        generator_options={
            "tick_s": tick_s,
            "max_inflight": max_inflight,
            "timeout_s": timeout_s,
            "late_threshold_s": late_threshold_s,
        },
    ).run().generator
    assert generator is not None
    report = generator.report("migrate", rate, duration_s, seed, trace=trace)
    report.migration = {
        "retired": list(plan.result.retiring),
        "membership_after": list(execute.result.membership_after),
        "outcome": execute.result.outcome,
        "items_exported": execute.result.items_exported,
        "items_imported": execute.result.items_imported,
        **degradation_window(
            execute.started_s, execute.settled_s, generator.error_timeline
        ),
    }
    return report
