"""Tier under test, in its own process: proxy plus backend node servers.

Boots the tier the way ``repro proxy`` does -- a
:class:`repro.proxy.ProxyHarness` with its default telemetry, backends
named ``live-NN`` -- seeds every key of the workload's key space
straight into the backend nodes that own it (coldest first, so the
hottest keys end up most recently used), prints one ``ready`` JSON line
and then obeys JSON commands on stdin:

- ``{"cmd": "scalein"}``: plan and execute a one-node scale-in with
  :class:`repro.core.master.Master` over a
  :class:`repro.net.cluster.LiveCluster`, switching the proxy through
  ``ProxyRouter.membership_listener()``; the retired node's listener
  stops a second after the switch;
- ``{"cmd": "stop"}``: report the tier's counters, stop, and write the
  recorded spans when tracing.

Run: ``python3 perfbench/tier.py --workload live-read-zipf --seed 1``
with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from typing import Any

from schedule import LIVE_SPECS, KeySpace, key_name, payload
from spans import SpanRecorder

from repro.core.master import Master
from repro.memcached.node import MemcachedNode
from repro.memcached.slab import PAGE_SIZE
from repro.net.client import NodeClient
from repro.net.cluster import LiveCluster, RemoteNode
from repro.proxy import ProxyHarness, ProxyRouter


RETIRE_GRACE_S = 1.0
"""Wait between the proxy's switch and stopping the retired node."""


def emit(message: dict[str, Any]) -> None:
    print(json.dumps(message), flush=True)


def seed_nodes(harness: ProxyHarness, keyspace: KeySpace) -> int:
    """Store seq 0 of every key on its ring owner, on the backend loop."""
    router = harness.router
    nodes = harness.backends.nodes
    clock = harness.backends.clock
    order = keyspace.seed_order()

    async def fill() -> int:
        stored = 0
        for index in order:
            key = key_name(index)
            data = payload(key, 0, keyspace.spec.value_bytes)
            node = nodes[router.primary_for(key)]
            stored += node.set(key, (0, data), len(data), clock())
        return stored

    return harness.backends.loop.call(fill(), timeout=120.0)


def trace_layers(recorder: SpanRecorder) -> None:
    """Span every public call the live layers make into each other."""
    recorder.patch(ProxyRouter, "get", "proxy.get")
    recorder.patch(ProxyRouter, "set", "proxy.set")
    recorder.patch(NodeClient, "get", "net.client_get")
    recorder.patch(NodeClient, "set", "net.client_set")
    recorder.patch(MemcachedNode, "get", "memcached.node_get")
    recorder.patch(MemcachedNode, "set", "memcached.node_set")
    recorder.patch(Master, "plan_scale_in", "core.master_plan")
    recorder.patch(Master, "execute", "core.master_execute")
    recorder.patch(
        RemoteNode,
        "export_items",
        "net.remote_export",
        items=lambda self, keys: len(keys),
    )
    recorder.patch(
        RemoteNode,
        "batch_import",
        "net.remote_import",
        items=lambda self, migrated, *a, **k: len(migrated),
    )


def counters(harness: ProxyHarness) -> dict[str, Any]:
    """The tier's own counters: proxy, node servers, and nodes."""
    metrics = harness.telemetry.metrics
    nodes = harness.backends.nodes
    wire_bytes = sum(
        metrics.counter(name, node=node).value
        for name in (
            "net_server_bytes_received_total",
            "net_server_bytes_sent_total",
        )
        for node in nodes
    )
    return {
        "proxy": harness.router.stats_snapshot(),
        "wire_bytes": wire_bytes,
        "get_hits": sum(n.stats.get_hits for n in nodes.values()),
        "get_misses": sum(n.stats.get_misses for n in nodes.values()),
        "evictions": sum(n.stats.evictions for n in nodes.values()),
        "set_rejects": sum(n.stats.too_large for n in nodes.values()),
    }


def scale_in(
    harness: ProxyHarness, live: LiveCluster, recorder: SpanRecorder | None
) -> dict[str, Any]:
    master = Master(live)
    switched: list[float] = []
    listener = harness.router.membership_listener()

    def switch(members: list[str]) -> None:
        listener(members)
        switched.append(time.monotonic())

    if recorder is not None:
        switch = recorder.wrap("proxy.membership_switch", switch)
    master.subscribe_membership(switch)
    plan_start = time.monotonic()
    retiring = master.choose_retiring(1)
    plan = master.plan_scale_in(retiring)
    report = master.execute(plan)
    done = time.monotonic()
    # Requests the proxy routed by the old ring may still be in flight
    # to the retired node, and stopping its listener closes their
    # connections unanswered; give them time to finish first.
    time.sleep(RETIRE_GRACE_S)
    for name in plan.retiring:
        harness.kill_backend(name)
    return {
        "event": "scalein",
        "plan_start": plan_start,
        "switch_at": switched[0] if switched else done,
        "done_at": done,
        "retired": list(plan.retiring),
        "outcome": report.outcome,
        "items_planned": plan.items_to_migrate,
        "items_imported": report.items_imported,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(LIVE_SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", default=None, help="write spans here")
    parser.add_argument("--cpu", type=int, default=None, help="pin to this CPU")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        # Before any thread starts, so every tier thread shares the CPU.
        os.sched_setaffinity(0, {args.cpu})
    spec = LIVE_SPECS[args.workload]
    keyspace = KeySpace(spec, args.seed)

    names = [f"live-{index:02d}" for index in range(spec.nodes)]
    harness = ProxyHarness(names, memory_per_node=spec.memory_mb * PAGE_SIZE)
    harness.start()
    live: LiveCluster | None = None
    recorder: SpanRecorder | None = None
    try:
        stored = seed_nodes(harness, keyspace)
        if spec.scalein:
            live = LiveCluster(harness.backends.endpoints)
        if args.spans:
            recorder = SpanRecorder(keep=True)
            trace_layers(recorder)
        host, port = harness.proxy_endpoint
        emit(
            {
                "event": "ready",
                "host": host,
                "port": port,
                "pid": os.getpid(),
                "cpu_s": time.process_time(),
                "seeded": stored,
            }
        )
        for line in sys.stdin:
            command = json.loads(line)["cmd"]
            if command == "scalein" and live is not None:
                try:
                    emit(scale_in(harness, live, recorder))
                except Exception as exc:  # the tier keeps serving
                    traceback.print_exc()
                    emit({"event": "scalein", "error": repr(exc)})
            elif command == "stop":
                break
            else:
                raise SystemExit(f"unknown command {command!r}")
        final = {"event": "stopped", **counters(harness)}
    finally:
        if recorder is not None:
            recorder.restore()
        if live is not None:
            live.close()
        harness.stop()
    if recorder is not None and args.spans:
        final["spans"] = recorder.dump(args.spans)
        final["items"] = recorder.items
    emit(final)
    return 0


if __name__ == "__main__":
    sys.exit(main())
