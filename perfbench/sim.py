"""The ``sim-etc-scale`` workload: the paper's ETC run in the simulator.

Each experiment is one :func:`repro.sim.run_experiment` call on
``paper_config("etc", "elmem", seed=...)``: 10 nodes, a 10 -> 9 scale-in
and a 9 -> 10 scale-out over 1500 simulated seconds, no sockets.  A run
repeats the experiment, and builds the stack (dataset, stack, prefill)
on its own as well when it needs more set-ups than experiments, so
``setup_s`` and the tick-loop cost are medians.  Every repeat must give
the same per-second series, digest for digest.

Two hooks sit on the program's public functions while an experiment
runs: the end of ``prefill_cluster`` splits set-up from the tick loop,
and ``WebApplication.run_second`` counts the KV gets of every tick.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any

from spans import SpanRecorder

import repro.sim.experiment as experiment
from repro.analysis.degradation import summarize_post_scaling
from repro.core.master import Master
from repro.core.policies import ElMemPolicy
from repro.database.latency import DatabaseTier
from repro.hashing.ketama import ConsistentHashRing
from repro.memcached.cluster import MemcachedCluster
from repro.sim.metrics import MetricsCollector
from repro.sim.scenarios import paper_config
from repro.sim.webapp import WebApplication
from repro.workloads.generator import RequestGenerator

EXPERIMENT_S = 12.0
"""Rough seconds one experiment takes; a run fits as many as it can."""


@dataclass
class Experiment:
    """What one experiment measured."""

    setup_s: float
    setup_wall_s: float
    tick_wall_s: float
    tick_cpu_s: float
    kv_ops: int
    digest: str
    outcomes: list[str]
    result: Any


@dataclass
class SimRun:
    """What one simulator run measured, over its experiments."""

    setup_s: list[float]
    setup_wall_s: list[float]
    ticks: int
    tick_wall_s: list[float]
    cpu_us_per_op: list[float]
    kv_ops: int
    hit_ratio: float
    excess_p95_ms: float
    outcomes: list[str]
    digests: list[str]
    layers: dict[str, Any] = field(default_factory=dict)


def _timed_setup(config: experiment.ExperimentConfig) -> tuple[float, float]:
    """CPU and wall seconds of one stand-alone dataset + stack + prefill."""
    start, start_cpu = time.perf_counter(), time.process_time()
    dataset, generator, cluster, *_ = experiment.build_stack(config)
    experiment.prefill_cluster(
        cluster,
        dataset,
        generator.popularity,
        end_time=-(config.warmup_seconds + 1.0),
    )
    return time.process_time() - start_cpu, time.perf_counter() - start


def series_digest(metrics: MetricsCollector) -> str:
    """SHA-256 over the per-second series the paper's figures plot."""
    rows = [
        [r.time, r.requests, r.hits, r.misses, r.active_nodes, r.p95_rt_ms]
        for r in metrics.records
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def trace_layers(recorder: SpanRecorder) -> None:
    """Span the simulator layers' public calls (folded totals)."""

    def count(_self: Any, keys: Any, *args: Any, **kwargs: Any) -> int:
        return len(keys) if hasattr(keys, "__len__") else 0

    recorder.patch(experiment, "build_dataset", "workloads.build_dataset")
    recorder.patch(experiment, "build_stack", "sim.build_stack")
    recorder.patch(experiment, "prefill_cluster", "sim.prefill_cluster")
    recorder.patch(WebApplication, "run_second", "sim.run_second")
    recorder.patch(
        RequestGenerator, "requests_for_second", "workloads.requests_for_second"
    )
    recorder.patch(ElMemPolicy, "multiget", "core.policy_multiget")
    recorder.patch(ElMemPolicy, "fill_many", "core.policy_fill_many")
    recorder.patch(
        MemcachedCluster, "get_many", "memcached.cluster_get_many", items=count
    )
    recorder.patch(
        ConsistentHashRing, "lookup_many", "hashing.route_many", items=count
    )
    recorder.patch(DatabaseTier, "get", "database.get")
    recorder.patch(DatabaseTier, "observe_second", "database.observe_second")
    recorder.patch(MetricsCollector, "add", "sim.metrics_add")
    recorder.patch(Master, "plan_scale_in", "core.master_plan")
    recorder.patch(Master, "plan_scale_out", "core.master_plan")
    recorder.patch(Master, "execute", "core.master_execute")


def run_experiment(config: experiment.ExperimentConfig) -> Experiment:
    """One experiment, split into set-up and tick loop."""
    marks: dict[str, float] = {}
    kv_ops = [0]
    prefill = experiment.prefill_cluster
    run_second = WebApplication.run_second

    def hooked_prefill(*args: Any, **kwargs: Any) -> None:
        prefill(*args, **kwargs)
        marks["ticks_start"] = time.perf_counter()
        marks["ticks_cpu"] = time.process_time()

    def counted_run_second(self: WebApplication, *args: Any) -> Any:
        record = run_second(self, *args)
        kv_ops[0] += record.kv_gets
        return record

    # On top of any trace wrappers, so set-up ends after a traced prefill.
    experiment.prefill_cluster = hooked_prefill
    WebApplication.run_second = counted_run_second
    try:
        start, start_cpu = time.perf_counter(), time.process_time()
        result = experiment.run_experiment(config)
        end, end_cpu = time.perf_counter(), time.process_time()
    finally:
        experiment.prefill_cluster = prefill
        WebApplication.run_second = run_second
    return Experiment(
        setup_s=marks["ticks_cpu"] - start_cpu,
        setup_wall_s=marks["ticks_start"] - start,
        tick_wall_s=end - marks["ticks_start"],
        tick_cpu_s=end_cpu - marks["ticks_cpu"],
        kv_ops=kv_ops[0],
        digest=series_digest(result.metrics),
        outcomes=[report.outcome for report in result.reports],
        result=result,
    )


def run_sim(
    seed: int, seconds: float, setups: int, trace: bool = False
) -> SimRun:
    """Repeat the experiment for about ``seconds``; traced runs do one."""
    config = paper_config("etc", "elmem", seed=seed)
    repeats = 1 if trace else max(1, int(seconds // EXPERIMENT_S))
    setup_times = [_timed_setup(config) for _ in range(setups - repeats)]
    recorder = SpanRecorder(keep=False) if trace else None
    if recorder is not None:
        trace_layers(recorder)
    runs = []
    try:
        for _ in range(repeats):
            if runs:
                runs[-1].result = None  # keep one stack in memory at a time
            runs.append(run_experiment(config))
    finally:
        if recorder is not None:
            recorder.restore()

    result = runs[-1].result
    metrics = result.metrics
    kv_gets = sum(r.kv_gets for r in metrics.records)
    hits = sum(r.hits for r in metrics.records)
    excess = [
        summarize_post_scaling(metrics, t).average_excess_rt_ms
        for t in result.scaling_times
    ]
    sim_run = SimRun(
        setup_s=[cpu for cpu, _ in setup_times] + [run.setup_s for run in runs],
        setup_wall_s=[wall for _, wall in setup_times]
        + [run.setup_wall_s for run in runs],
        ticks=config.warmup_seconds + len(metrics.records),
        tick_wall_s=[run.tick_wall_s for run in runs],
        cpu_us_per_op=[run.tick_cpu_s / run.kv_ops * 1e6 for run in runs],
        kv_ops=sum(run.kv_ops for run in runs),
        hit_ratio=hits / kv_gets,
        excess_p95_ms=sum(excess) / len(excess),
        outcomes=[outcome for run in runs for outcome in run.outcomes],
        digests=[run.digest for run in runs],
    )
    if recorder is not None:
        sim_run.layers = _sim_layers(recorder, result)
    return sim_run


def _sim_layers(recorder: SpanRecorder, result: Any) -> dict[str, float]:
    layers: dict[str, float] = {}
    for name, stats in recorder.folded_stats().items():
        layers[f"{name}.calls"] = stats["calls"]
        layers[f"{name}.busy_s"] = stats["busy_s"]
        if name == "sim.run_second":
            layers[f"{name}.self_s"] = stats["self_s"]
    for name, count in recorder.items.items():
        layers[f"{name}.keys"] = count
    reports = result.reports
    layers["core.fusecache_comparisons"] = sum(
        r.plan.fusecache_comparisons for r in reports
    )
    layers["core.items_migrated"] = sum(r.items_imported for r in reports)
    stats = result.cluster.aggregate_stats()
    layers["memcached.hit_ratio"] = stats.hit_rate
    layers["memcached.evictions"] = stats.evictions
    return layers
