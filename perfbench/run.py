"""The repository's benchmark: one command, three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sim-etc-scale --seed 1 \\
        --seconds 30 --trace 0

Workloads:

- ``sim-etc-scale``: the paper's ETC experiment in the simulator;
- ``live-read-zipf``: open-loop Zipf reads through the proxy tier;
- ``live-write-scalein``: open-loop 50 % writes through the proxy tier,
  with a one-node scale-in a third of the way through.

With ``--trace 0`` the run is untraced and the last line carries every
end-to-end metric of :data:`metrics.END_TO_END`.  With ``--trace 1`` the
workload runs untraced and then traced, and the last line carries every
per-layer metric of :data:`metrics.PER_LAYER`, tracing overhead included.

The lines before the last describe the run for people: the environment,
each metric of the workload by name, unit and sample count, and the
correctness checks.  The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every correctness check passed.  Each run's details are
also written to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import sys
from dataclasses import dataclass, field
from typing import Any

from metrics import END_TO_END, PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("sim-etc-scale", "live-read-zipf", "live-write-scalein")
SETUPS = {"sim-etc-scale": 3, "live-read-zipf": 7, "live-write-scalein": 7}
"""Set-ups per untraced run; ``setup_s`` is their median."""


@dataclass
class Outcome:
    """What one pass over a workload produced."""

    metrics: dict[str, float | None] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    report: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    details: dict[str, Any] = field(default_factory=dict)

    def line(self, name: str, value: Any, unit: str, samples: Any = None) -> None:
        """One human-readable report line: name, value, unit, count."""
        if isinstance(value, float):
            shown = f"{value:.6g}"
        else:
            shown = "n/a" if value is None else str(value)
        count = "" if samples is None else f"  (n={samples})"
        self.report.append(f"  {name:<26} {shown:>14} {unit}{count}")


def environment(seed: int) -> dict[str, Any]:
    with open("/proc/loadavg", encoding="ascii") as handle:
        load = [float(part) for part in handle.read().split()[:3]]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_at_start": load,
        "seed": seed,
    }


# ----------------------------------------------------------------------
# Simulator
# ----------------------------------------------------------------------


def sim_outcome(seed: int, seconds: float, setups: int, trace: bool) -> Outcome:
    import sim
    from stats import median

    run = sim.run_sim(seed, seconds, setups, trace=trace)
    out = Outcome(layers=run.layers, attempted=run.kv_ops)
    out.metrics = {
        "setup_s": median(run.setup_s),
        "cpu_us_per_op": median(run.cpu_us_per_op),
        "hit_ratio": run.hit_ratio,
    }
    ticks_per_s = median([run.ticks / wall for wall in run.tick_wall_s])
    repeats = len(run.tick_wall_s)
    out.line("setup_s", out.metrics["setup_s"], "s", len(run.setup_s))
    out.line("setup_wall_s", median(run.setup_wall_s), "s", len(run.setup_s))
    out.line("cpu_us_per_op", out.metrics["cpu_us_per_op"], "us", run.kv_ops)
    out.line("hit_ratio", run.hit_ratio, "ratio")
    out.line("sim_ticks_per_s", ticks_per_s, "ticks/s", f"{repeats}x{run.ticks}")
    out.line("sim_excess_p95_ms", run.excess_p95_ms, "ms (modelled)")
    out.line("sim_hit_ratio", run.hit_ratio, "ratio")
    out.line("migration_outcomes", ",".join(run.outcomes), "")
    out.line("series_digest", run.digests[0][:16], "sha256", repeats)
    if any(outcome != "warm" for outcome in run.outcomes):
        out.failures.append(f"migration outcomes {run.outcomes}, not all warm")
    if len(set(run.digests)) > 1:
        out.failures.append(f"same-seed experiments differ: {run.digests}")
    previous = _remember_digest(seed, run.digests[0])
    if previous is not None:
        out.failures.append(
            f"series digest {run.digests[0]} differs from an earlier run of "
            f"seed {seed} in this checkout ({previous})"
        )
    out.details = {
        "setup_s": run.setup_s,
        "setup_wall_s": run.setup_wall_s,
        "ticks": run.ticks,
        "tick_wall_s": run.tick_wall_s,
        "cpu_us_per_op": run.cpu_us_per_op,
        "excess_p95_ms": run.excess_p95_ms,
        "outcomes": run.outcomes,
        "digests": run.digests,
    }
    return out


def _remember_digest(seed: int, digest: str) -> str | None:
    """Record the series digest of ``seed``; return a differing earlier one."""
    path = os.path.join(OUT_DIR, "sim-digests.json")
    known: dict[str, str] = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            known = json.load(handle)
    previous = known.setdefault(str(seed), digest)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(known, handle, indent=1)
    return None if previous == digest else previous


# ----------------------------------------------------------------------
# Live tier
# ----------------------------------------------------------------------


def live_outcome(
    name: str, seed: int, seconds: float, setups: int, spans: str | None
) -> Outcome:
    import live
    from schedule import LIVE_SPECS
    from stats import median, quantile

    spec = LIVE_SPECS[name]
    run = asyncio.run(
        live.run_live(ROOT, spec, seed, seconds, setups, spans=spans)
    )
    records = run.records
    out = Outcome(attempted=len(records), failed=live.failed_count(records))
    out.metrics = {
        "setup_s": median(run.setup_s),
        "cpu_us_per_op": run.tier_cpu_s / run.completed * 1e6
        if run.completed
        else None,
        "hit_ratio": live.hit_ratio(records),
    }
    out.line("setup_s", out.metrics["setup_s"], "s", len(run.setup_s))
    out.line("setup_wall_s", median(run.setup_wall_s), "s", len(run.setup_s))
    out.line("cpu_us_per_op", out.metrics["cpu_us_per_op"], "us", run.completed)
    out.line("hit_ratio", out.metrics["hit_ratio"], "ratio")
    for kind in ("get", "set"):
        summary = live.latency_summary(records, kind)
        for part in ("p50_ms", "p99_ms"):
            out.line(f"{kind}_{part}", summary.get(part), "ms", summary["samples"])
    out.line("failed_share", out.failed / out.attempted, "ratio", out.attempted)
    if run.ladder is not None:
        out.line(
            "max_rate_ok",
            run.ladder["max_rate_ok"],
            "ops/s",
            f"{len(run.ladder['steps'])} rates",
        )
    scale = run.scalein
    if scale is not None and "error" in scale:
        # The program failed its migration under load; the tier kept
        # serving, so the run still measures it (traceback in the log).
        out.line("scalein_outcome", f"raised {scale['error']}", "")
    elif scale is not None:
        window = scale["window_get"]
        out.line("scalein_s", scale["scalein_s"], "s")
        out.line(
            "scalein_window_get_p99_ms",
            window.get("p99_ms"),
            "ms",
            window["samples"],
        )
        out.line(
            "post_switch_hit_ratio", scale["post_switch_hit_ratio"], "ratio"
        )
        out.line("scalein_outcome", scale["outcome"], "")
    lateness = live.lateness_ms(records)
    counters = run.counters
    proxy = counters["proxy"]
    fetched = proxy["coalesce_leaders"] + proxy["coalesce_followers"]
    out.layers = {
        "driver.lateness_p50_ms": quantile(lateness, 0.5),
        "driver.lateness_p99_ms": quantile(lateness, 0.99),
        "driver.cpu_us_per_op": run.driver_cpu_s / len(records) * 1e6,
        "driver.reconnects": run.reconnects,
        "driver.stale_reads": run.stale_reads,
        "proxy.coalesce_ratio": proxy["coalesce_followers"] / fetched
        if fetched
        else 0.0,
        "proxy.hot_keys": proxy["hot_keys"],
        "proxy.fanout_reads": proxy["fanout_reads"],
        "proxy.degraded_ops": proxy["degraded_gets"] + proxy["degraded_sets"],
        "net.bytes_per_op": counters["wire_bytes"]
        / max(1, proxy["proxy_gets"] + proxy["proxy_sets"]),
        "memcached.hit_ratio": counters["get_hits"]
        / max(1, counters["get_hits"] + counters["get_misses"]),
        "memcached.evictions": counters["evictions"],
        "memcached.set_rejects": counters["set_rejects"],
    }
    if scale is not None:
        out.layers["core.items_imported"] = scale.get("items_imported", 0)
    for layer, count in counters.get("items", {}).items():
        out.layers[f"{layer}.keys"] = count
    for layer in (
        "driver.lateness_p50_ms",
        "driver.lateness_p99_ms",
        "driver.reconnects",
        "driver.stale_reads",
    ):
        out.line(layer, out.layers[layer], PER_LAYER[layer], len(lateness))
    if run.corrupt:
        out.failures.append(
            f"{len(run.corrupt)} corrupt reads, first: {run.corrupt[0]}"
        )
    out.details = {
        "setup_s": run.setup_s,
        "setup_wall_s": run.setup_wall_s,
        "tier_pid": run.tier_pid,
        "tier_threads": run.tier_threads,
        "tier_cpu_s": run.tier_cpu_s,
        "driver_cpu_s": run.driver_cpu_s,
        "counters": counters,
        "ladder": run.ladder,
        "scalein": scale,
    }
    return out


def live_layers(spans_path: str) -> dict[str, float]:
    """Per-layer numbers from the tier's span file."""
    from spans import layer_stats, load_spans

    stats = layer_stats(load_spans(spans_path))
    layers: dict[str, float] = {}
    for name, values in stats.items():
        for part, value in values.items():
            layers[f"{name}.{part}"] = value

    def total(names: tuple[str, ...], part: str) -> float:
        return sum(stats.get(name, {}).get(part, 0.0) for name in names)

    clients = ("net.client_get", "net.client_set")
    nodes = ("memcached.node_get", "memcached.node_set")
    # Client round trips minus the node ops they carried: wire, server
    # parse/dispatch and loop handoffs.
    server_self = total(clients, "busy_s") - total(nodes, "busy_s")
    calls = total(clients, "calls")
    layers["net.server_self.busy_s"] = server_self
    layers["net.server_self.us_per_call"] = (
        server_self / calls * 1e6 if calls else 0.0
    )
    return layers


def run_workload(
    workload: str, seed: int, seconds: float, setups: int, spans: str | None
) -> Outcome:
    if workload == "sim-etc-scale":
        return sim_outcome(seed, seconds, setups, trace=spans is not None)
    out = live_outcome(workload, seed, seconds, setups, spans)
    if spans is not None:
        out.layers.update(live_layers(spans))
    return out


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="ElMem tier benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"no program source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.makedirs(OUT_DIR, exist_ok=True)

    env = environment(args.seed)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    untraced = run_workload(
        args.workload, args.seed, args.seconds, SETUPS[args.workload], None
    )
    passes = [untraced]
    if args.trace:
        spans = os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl")
        passes.append(
            run_workload(args.workload, args.seed, args.seconds, 1, spans)
        )
    for key in ("tier_pid", "tier_threads"):
        if key in untraced.details:
            env[key] = untraced.details[key]
    print("environment " + json.dumps(env))
    print("metrics (untraced):")
    print("\n".join(untraced.report))

    failures = [failure for run in passes for failure in run.failures]
    missing = [name for name in END_TO_END if untraced.metrics.get(name) is None]
    if missing:
        failures.append(f"no value for {missing}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    if missing:
        return 1

    if args.trace:
        traced = passes[1]
        values = {name: float(traced.layers.get(name, 0.0)) for name in PER_LAYER}
        for name in END_TO_END:
            after = traced.metrics.get(name)
            values[f"overhead.{name}"] = (
                0.0 if after is None else after - untraced.metrics[name]
            )
        units = PER_LAYER
        print("per-layer metrics (traced):")
        for name, unit in units.items():
            print(f"  {name:<38} {values[name]:.6g} {unit}")
    else:
        values = {name: float(untraced.metrics[name]) for name in END_TO_END}
        units = END_TO_END
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit in units.items()
    }
    record = {
        "environment": env,
        "workload": args.workload,
        "metrics": values,
        "details": untraced.details,
        "failures": failures,
    }
    path = os.path.join(OUT_DIR, f"{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": untraced.attempted,
                "failed": untraced.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
