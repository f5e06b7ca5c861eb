"""Scripted failover chaos for the proxy tier.

:func:`run_proxy_chaos` is the repeatable "kill a backend mid-traffic"
story the CI smoke job and the live tests replay:

1. boot a proxy over N live backends (one backend mildly stalled by a
   seeded :class:`~repro.faults.sockets.SocketFaultPolicy`, so the
   socket fault path is exercised the whole run);
2. warm the cache and replay an open-loop tape through the proxy
   endpoint at :data:`CHAOS_RATE` (a
   :class:`~repro.loadgen.runner.LiveScenario`);
3. kill one backend's listener at the deadline of tape op
   ``healthy_ops`` -- every client operation must still complete
   without a single :class:`~repro.errors.TransportError` (dead-backend
   keys degrade to misses / ``NOT_STORED``), and the victim's circuit
   breaker must be observed open via :mod:`repro.obs` metrics;
4. restart the backend and probe victim-owned keys until the breaker
   re-closes and one is served again (warm recovery -- the listener
   died, the cache did not).

The outcome is a :class:`ProxyChaosResult` whose :meth:`to_dict` is the
JSON artifact CI uploads.  Everything that varies is derived from the
``seed``, so a red run can be replayed bit-for-bit.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import TransportError
from repro.faults.sockets import SocketFaultPolicy
from repro.faults.spec import FaultSchedule, FaultSpec
from repro.obs import create_telemetry
from repro.proxy.breaker import CLOSED, OPEN
from repro.proxy.router import ProxyConfig
from repro.proxy.server import ProxyHarness

if TYPE_CHECKING:
    from repro.loadgen.runner import LiveScenario

CHAOS_RATE = 400.0
"""Offered ops/s of the chaos tape (healthy then dead phase)."""

VALUE_BYTES = 64
"""Chaos payload size; value content is irrelevant to the story."""

SCRAPE_EXPECTED_METRICS = (
    "proxy_breaker_state",
    "proxy_breaker_transitions_total",
    "proxy_route_seconds",
    "net_client_roundtrip_seconds",
)
"""Metric families the mid-chaos ``stats obs`` scrape must contain."""


def _scrape_obs(host: str, port: int) -> dict:
    """Mid-chaos ``stats obs`` scrape of the live proxy endpoint.

    Returns a JSON-able verdict instead of raising: the chaos contract
    wants the scrape outcome in the artifact either way.
    """
    from repro.obs.scrape import parse_prometheus, scrape_text

    try:
        text = scrape_text(host, port, timeout_s=5.0)
        samples = parse_prometheus(text)
    except TransportError as exc:
        return {"ok": False, "error": str(exc)}
    present = sorted(
        {
            family
            for family in SCRAPE_EXPECTED_METRICS
            if any(s.name.startswith(family) for s in samples)
        }
    )
    missing = sorted(set(SCRAPE_EXPECTED_METRICS) - set(present))
    return {
        "ok": not missing,
        "present": present,
        "missing": missing,
        "samples": len(samples),
        "bytes": len(text),
    }


@dataclass
class ProxyChaosResult:
    """What one chaos run observed, JSON-serialisable via to_dict()."""

    nodes: list[str]
    victim: str
    stalled: str
    seed: int
    requests_total: int = 0
    client_transport_errors: int = 0
    breaker_opened: bool = False
    breaker_recovered: bool = False
    victim_served_after_restart: bool = False
    transitions: dict[str, int] = field(default_factory=dict)
    proxy_stats: dict[str, int] = field(default_factory=dict)
    degradation: dict = field(default_factory=dict)
    obs_scrape: dict = field(default_factory=dict)
    load: dict = field(default_factory=dict)
    trace_spans: int = 0
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        """The chaos contract: clean clients, observable breaker cycle,
        a live metrics surface, and a measured degradation window."""
        return (
            self.client_transport_errors == 0
            and self.breaker_opened
            and self.breaker_recovered
            and self.victim_served_after_restart
            and self.transitions.get("open", 0) >= 1
            and self.transitions.get("half_open", 0) >= 1
            and self.transitions.get("closed", 0) >= 1
            and bool(self.obs_scrape.get("ok"))
            and self.degradation.get("window_s") is not None
        )

    def to_dict(self) -> dict:
        """Flat JSON-friendly report (the CI artifact)."""
        return {"ok": self.ok, **asdict(self)}


class _ChaosHarness(ProxyHarness):
    """A proxy harness whose one scenario endpoint is the proxy."""

    @property
    def endpoints(self) -> dict[str, tuple[str, int]]:
        return {"proxy": self.proxy_endpoint}


def run_proxy_chaos(
    nodes: int = 4,
    memory_per_node: int = 1 << 20,
    keys: int = 64,
    healthy_ops: int = 200,
    dead_ops: int = 200,
    seed: int = 0,
    recovery_timeout_s: float = 10.0,
    trace_sample: float = 0.05,
    trace_jsonl: str | None = None,
) -> ProxyChaosResult:
    """Kill-and-recover one backend behind a live proxy; see module doc.

    Raises nothing on a failed contract -- inspect ``result.ok`` (the
    CLI and tests do), so a red run still yields a full artifact.

    Beyond the breaker contract this also measures the degradation
    window from the kill to recovery (breaker closed + a victim-owned
    hit), scrapes ``stats obs`` at the end of the tape to assert the
    live metrics surface is up, and (with ``trace_jsonl``) exports the
    run's sampled cross-process spans.
    """
    # Imported here: the load generator's workload model pulls in
    # scipy, which plain proxy users should not pay for.
    from repro.loadgen.runner import Event, LiveScenario, degradation_window
    from repro.loadgen.schedule import build_schedule

    names = [f"node-{i:03d}" for i in range(nodes)]
    victim = names[-1]
    stalled = names[0]
    # One mild permanent stall on a non-victim backend: every chunk it
    # receives is delayed ~5ms, far below the client timeout, so the
    # fault path runs continuously without ever breaking the contract.
    policy = SocketFaultPolicy(
        FaultSchedule(
            [FaultSpec(0.0, "node_stall", node=stalled, factor=0.5)]
        ),
        base_delay_s=0.005,
    )
    config = ProxyConfig(
        failure_threshold=3,
        open_duration_s=0.25,
        close_after=1,
        timeout_s=1.0,
    )
    result = ProxyChaosResult(
        nodes=names, victim=victim, stalled=stalled, seed=seed
    )
    telemetry = create_telemetry(
        "proxy-chaos",
        trace_sample=trace_sample,
        trace_seed=seed,
    )
    harness = _ChaosHarness(
        names,
        memory_per_node,
        config=config,
        fault_policy=policy,
        telemetry=telemetry,
    )
    duration_s = (healthy_ops + dead_ops) / CHAOS_RATE
    schedule = build_schedule(
        CHAOS_RATE,
        duration_s,
        seed=seed,
        num_keys=keys,
        set_fraction=0.25,
        value_bytes=VALUE_BYTES,
    )
    keyspace = sorted({op.key for op in schedule})
    metrics = telemetry.metrics
    probe_errors: list[tuple[float, str]] = []
    probes: list[bool] = []  # one hit/miss flag per victim-key probe

    def breaker_gauge() -> float:
        return metrics.gauge("proxy_breaker_state", backend=victim).value

    def observe(scenario: LiveScenario) -> None:
        result.obs_scrape = _scrape_obs(*harness.proxy_endpoint)
        opens = metrics.counter(
            "proxy_breaker_transitions_total", backend=victim, to=OPEN
        )
        # The breaker may legitimately sit in half-open (probing the
        # still-dead listener) at observation time; "opened" means it
        # tripped at least once and has not settled closed.
        result.breaker_opened = (
            harness.breaker_state(victim) != CLOSED
            and breaker_gauge() >= 1.0
            and opens.value >= 1
        )

    def restart(scenario: LiveScenario) -> list[str]:
        harness.restart_backend(victim)
        router: Any = harness.router
        return [
            key for key in keyspace if router.primary_for(key) == victim
        ] or keyspace

    def recovered(scenario: LiveScenario) -> bool:
        victim_keys = restart_event.result
        key = victim_keys[len(probes) % len(victim_keys)]
        try:
            probes.append(scenario.live.get(key, 0.0) is not None)
        except TransportError:
            probe_errors.append((scenario.now(), victim))
            probes.append(False)
        result.victim_served_after_restart = any(probes)
        return (
            result.victim_served_after_restart
            and harness.breaker_state(victim) == CLOSED
            and breaker_gauge() == 0.0
        )

    def tally(scenario: LiveScenario) -> None:
        result.transitions = {
            state: int(
                metrics.counter(
                    "proxy_breaker_transitions_total",
                    backend=victim,
                    to=state,
                ).value
            )
            for state in ("open", "half_open", "closed")
        }
        router: Any = harness.router
        result.proxy_stats = router.stats_snapshot()

    kill_event = Event(
        "kill",
        lambda scenario: harness.kill_backend(victim),
        at_s=schedule[min(healthy_ops, len(schedule) - 1)].send_at_s,
    )
    restart_event = Event(
        "restart", restart, until=recovered, timeout_s=recovery_timeout_s
    )
    started = time.monotonic()
    scenario = LiveScenario(
        harness,
        [
            kill_event,
            Event("observe", observe, at_s=schedule[-1].send_at_s),
            restart_event,
            Event("tally", tally),
        ],
        schedule,
        name="proxy_chaos",
        seed_value_bytes=VALUE_BYTES,
        telemetry=telemetry,
        trace_jsonl=trace_jsonl,
    ).run()
    result.elapsed_s = round(time.monotonic() - started, 3)
    generator = scenario.generator
    assert generator is not None
    load = generator.report("chaos", CHAOS_RATE, duration_s, seed)
    result.load = load.to_dict()
    result.requests_total = len(keyspace) + load.ops_sent + len(probes)
    result.client_transport_errors = (
        load.transport_errors + load.wire_errors + len(probe_errors)
    )
    result.breaker_recovered = restart_event.settled_s is not None
    result.degradation = degradation_window(
        kill_event.started_s,
        restart_event.settled_s,
        [*generator.error_timeline, *probe_errors],
    )
    result.trace_spans = scenario.trace_spans
    return result
