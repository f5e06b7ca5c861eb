"""Names and units of every metric the benchmark reports.

``END_TO_END`` metrics come from untraced runs and are reported on every
workload; ``PER_LAYER`` metrics come from traced runs and are reported
on every workload too, as 0 where the workload does not exercise the
layer.  ``BENCHMARK.json`` lists exactly these (a test checks it).
"""

from __future__ import annotations

END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "cpu_us_per_op": "us",
    "hit_ratio": "ratio",
}


def _timed(name: str, *extra: str) -> dict[str, str]:
    units = {"calls": "count", "busy_s": "s", "self_s": "s", "keys": "count",
             "p50_us": "us", "p99_us": "us"}
    return {f"{name}.{part}": units[part] for part in ("calls", "busy_s", *extra)}


PER_LAYER: dict[str, str] = {
    # Simulator set-up.
    **_timed("workloads.build_dataset"),
    **_timed("sim.build_stack"),
    **_timed("sim.prefill_cluster"),
    # Simulator tick loop.
    **_timed("sim.run_second", "self_s"),
    **_timed("workloads.requests_for_second"),
    **_timed("core.policy_multiget"),
    **_timed("core.policy_fill_many"),
    **_timed("memcached.cluster_get_many", "keys"),
    **_timed("hashing.route_many", "keys"),
    **_timed("database.get"),
    **_timed("database.observe_second"),
    **_timed("sim.metrics_add"),
    # Migrations, simulated and live.
    **_timed("core.master_plan"),
    **_timed("core.master_execute"),
    "core.fusecache_comparisons": "count",
    "core.items_migrated": "count",
    # Cache outcomes, simulated and live.
    "memcached.hit_ratio": "ratio",
    "memcached.evictions": "count",
    # Load driver.
    "driver.lateness_p50_ms": "ms",
    "driver.lateness_p99_ms": "ms",
    "driver.cpu_us_per_op": "us",
    "driver.reconnects": "count",
    "driver.stale_reads": "count",
    # Proxy.
    **_timed("proxy.get", "self_s", "p50_us", "p99_us"),
    **_timed("proxy.set", "self_s", "p50_us", "p99_us"),
    "proxy.coalesce_ratio": "ratio",
    "proxy.hot_keys": "count",
    "proxy.fanout_reads": "count",
    "proxy.degraded_ops": "count",
    # Backend client and node server.
    **_timed("net.client_get", "p50_us", "p99_us"),
    **_timed("net.client_set", "p50_us", "p99_us"),
    "net.server_self.busy_s": "s",
    "net.server_self.us_per_call": "us",
    "net.bytes_per_op": "bytes",
    # Node cache and slabs.
    **_timed("memcached.node_get", "p50_us", "p99_us"),
    **_timed("memcached.node_set", "p50_us", "p99_us"),
    "memcached.set_rejects": "count",
    # Live migration.
    **_timed("net.remote_export", "keys"),
    **_timed("net.remote_import", "keys"),
    "core.items_imported": "count",
    **_timed("proxy.membership_switch"),
    # Tracing overhead: traced minus untraced end-to-end metric.
    **{f"overhead.{name}": unit for name, unit in END_TO_END.items()},
}
